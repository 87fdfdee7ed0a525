"""Command-line reports: json / csv / md output, golden-table data.

Grammar (one subcommand per verified statement):

    bihindex torus {index|spectrum|scan|check}
    bihindex circle index
    bihindex legendre {verify|index|descartes}
    bihindex reduced {sphere|ellipsoid|torus|bessel|conformal}
    bihindex noncompact {stable|hessian|counterexample}

Exit codes: 0 success, 1 usage error, 2 verification failure.  Reports are
deterministic: identical invocations produce byte-identical output (floats
are rounded to 12 significant digits at the leaves while rendering, JSON
keys sorted, scan rows ordered by k).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
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
    integrand_min,
    is_strictly_stable,
)
from .reduced import (
    TERM_RATIO,
    ReducedProblem,
    bessel_nullity_check,
    conformal_hessian,
    reduced_index_nullity,
    reduced_index_torus,
)
from .scan import conjecture_scan
from .torus import ScanRow, check_runs, index_nullity, run_totals, spectrum

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# torus index walks the rows 14m^2 < 15k^2 with about 2.0 exact evaluations
# each, O(k): 0.28 s, 5.9 MB of JSON and 57 MB peak at k = 10^5 on one core
# of an x86-64 Xeon, Python 3.11
INDEX_K_LIMIT = 10**5

# torus scan costs about 8e-7 * k s per row k on the same core, so about
# 40 s for all k <= 10^4 in one process
SCAN_K_LIMIT = 10**4

# torus spectrum builds and sorts the branches of the about (pi/4) lambda_max
# labels with m^2 + n^2 <= lambda_max: 4.5-5.1 s and 161 MB peak at 10^5
# (--k 2, csv) on the same core
LAMBDA_MAX_LIMIT = 10**5

# legendre descartes takes about 0.028 ms per (m, n) pair (2.3-2.6 s at
# 300 x 300 on one core of an x86-64 Xeon, Python 3.11); larger ranges are
# refused
DESCARTES_RANGE_LIMIT = 300

# circle index --check-matrices counts the blocks m <= last_row(k) ~ 1.035k,
# about 0.11 ms per unit of k (1.1-1.2 s at k = 10^4 on one core of an x86-64
# Xeon, Python 3.11); a larger k is refused with the check, answered without it
CHECK_MATRICES_K_LIMIT = 10**4

# torus check reads at most this many bytes (a k = 10^4 report is about 0.64 MB)
CHECK_FILE_LIMIT = 2**26

# digits of --n-dim, of legendre verify --m and --n, of circle index --k and
# reduced torus --k, and of each exact rational's numerator and denominator.
# The longest exact strings a report then prints, a noncompact hessian
# coefficient (3615 digits) and a legendre verify quintic coefficient (3005
# digits, degree 20 in the labels), stay under Python's 4300-digit int to str
# limit; at 215 digits the quintic reaches it.  Both --k commands print an
# index of about 2k, which reaches the limit from a 4300-digit k
EXACT_INPUT_DIGITS = 150

# digits of torus spectrum --k: a value_float overflows only when the
# eigenvalue does, and mu1 = -k^4 leaves the float range from k ~ 1.16e77
# (float(-k^4) is finite at k = 10^77 - 1 and overflows at 1.2e77)
SPECTRUM_K_DIGITS = 77


class UsageError(Exception):
    pass


# -- deterministic rendering -----------------------------------------------------

def _round(x: Any) -> Any:
    """x rounded to 12 significant digits if it is a float, else x."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


def _json(obj: Any, indent: str) -> str:
    """obj as JSON at nesting indent; TypeError for a type or key JSON cannot hold."""
    if isinstance(obj, int) and obj is not True and obj is not False:
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items, ends = [_json(value, inner) for value in obj], "[]"
    elif isinstance(obj, dict):
        items, ends = [f"{_quote(key)}: {_json(obj[key], inner)}" for key in sorted(obj)], "{}"
    elif isinstance(obj, str):
        return _quote(obj)
    elif obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    else:  # a float: float.__repr__ raises TypeError for any other type
        return float.__repr__(_round(obj)).replace("inf", "Infinity").replace("nan", "NaN")
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}" if items else ends


def render_json(report: dict) -> str:
    return _json(report, "") + "\n"


def _table(report: dict) -> tuple[list[str], list[list[str]]]:
    """The table of a report: its csv_header and its csv_rows as strings."""
    rows = report["results"]["csv_rows"]
    return report["results"]["csv_header"], [[str(_round(x)) for x in row] for row in rows]


def render_csv(report: dict) -> str:
    """Comma-separated rows; a cell that holds a comma or a quote is quoted."""
    header, rows = _table(report)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def render_md(report: dict) -> str:
    header, rows = _table(report)
    out = [f"### {report['command']}", ""]
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "|".join(["---"] * len(header)) + "|")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    out.append("")
    return "\n".join(out)


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_md}


# -- argument plumbing -------------------------------------------------------------

# UTF-8 bytes of a refused argument that a diagnostic echoes, and of a whole
# argparse message; a file path is echoed whole (the OS caps its length)
ECHO_BYTES = 40
MESSAGE_BYTES = 160


def _echo(text: str, limit: int = ECHO_BYTES) -> str:
    """text, or its longest prefix of at most limit bytes and "...", cut
    between characters; a character stderr cannot encode counts escaped."""
    size = 0
    for i, ch in enumerate(text):
        size += len(ch.encode(errors="backslashreplace"))
        if size > limit:
            return text[:i] + "..."
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 with one-line diagnostics
        # argparse quotes a refused argument whole: cut each word, then the line
        raise UsageError(_echo(" ".join(map(_echo, message.split())), MESSAGE_BYTES))


def _int_in(lo: int, hi: int, too_large: str | None = None):
    """argparse type: an integer in lo..hi; too_large words the refusal above
    hi (default "must be <= hi").  _Parser.error cuts the echoed text."""
    above = too_large or f"must be <= {hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            body = text.strip()
            sign, digits = (body[0], body[1:]) if body[:1] in ("+", "-") else ("", body)
            if digits.isdecimal():  # past int()'s digit limit, so far outside lo..hi
                bound, kind = (f"must be >= {lo}", "negative ") if sign == "-" else (above, "")
                raise argparse.ArgumentTypeError(
                    f"{bound}, got a {len(digits)}-digit {kind}integer") from None
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if value > hi:
            raise argparse.ArgumentTypeError(above)
        return value

    return parse


def _parse_rational(text: str, name: str) -> Fraction:
    # Fraction("1e<N>") builds 10^N, so refuse a long exponent before parsing
    _, e, exponent = text.lower().partition("e")
    if e and len(exponent.strip().lstrip("+-").lstrip("0")) > 4:
        raise UsageError(f"{name} {_echo(repr(text))}: the exponent is too large")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{name} must be an exact rational like 3, 1/2 or 0.25, "
                         f"got {_echo(repr(text))}") from None
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
        raise UsageError(f"--phase {_echo(repr(text))}: {exc}")


@functools.cache
def build_parser() -> _Parser:
    """The bihindex argument parser, built once per process.

    Every call returns the same parser: it holds no per-call state (each
    parse_args returns a fresh Namespace, and the type= callables are pure),
    so main pays for building it once, not on every call.  The CPU count that
    bounds --workers is read when it is built.  Each subcommand is declared
    once, by command(), which sets its handler and paper anchor as the
    defaults run and anchor of the Namespace that main reads.
    """
    p = _Parser(prog="bihindex", description=__doc__)
    p.add_argument("--version", action="version", version=f"bihindex {__version__}")
    groups = p.add_subparsers(dest="group", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every command
    common.add_argument("--format", choices=("json", "csv", "md"), default="json")
    common.add_argument("--output", default=None, help="write the report to this file")
    cpus = os.cpu_count() or 1
    workers = _int_in(1, cpus, f"must be <= {cpus} (the CPU count)")

    def digits(lo: int, most: int):
        return _int_in(lo, 10**most - 1, f"must have at most {most} digits")

    def command(group, name: str, run, anchor: str, **kw) -> _Parser:
        sub = group.add_parser(name, parents=[common], **kw)
        sub.set_defaults(run=run, anchor=anchor)
        return sub

    torus = groups.add_parser("torus").add_subparsers(dest="command", required=True)
    t_index = command(torus, "index", _cmd_torus_index, "torus-index-table",
                      help="exact index/nullity for one k")
    t_index.add_argument("--k", type=_int_in(1, INDEX_K_LIMIT), required=True,
                         help=f"winding number, at most {INDEX_K_LIMIT}")
    t_index.add_argument("--workers", type=workers, default=1,
                         help="accepted and unused (torus index runs in one process), so that "
                              "callers such as perfbench's index workload may pass --workers 1")
    t_spec = command(torus, "spectrum", _cmd_torus_spectrum, "torus-eigenvalue-catalog",
                     help="merged spectrum up to a Laplace level")
    t_spec.add_argument("--k", type=digits(1, SPECTRUM_K_DIGITS), required=True,
                        help=f"winding number, at most {SPECTRUM_K_DIGITS} digits")
    t_spec.add_argument("--lambda-max", type=_int_in(0, LAMBDA_MAX_LIMIT), default=None,
                        help="Laplace level cap (default 4*k^2, covering all nonpositive "
                             f"branches; at most {LAMBDA_MAX_LIMIT})")
    t_scan = command(torus, "scan", _cmd_torus_scan, "torus-nullity-conjecture",
                     help="nullity-conjecture scan for k=1..k-max")
    t_scan.add_argument("--k-max", type=_int_in(1, SCAN_K_LIMIT), required=True,
                        help=f"last winding number, at most {SCAN_K_LIMIT}")
    t_scan.add_argument("--workers", type=workers, default=1,
                        help="worker processes, at most the CPU count")
    t_check = command(torus, "check", _cmd_torus_check, "torus-index-table",
                      help="verify the evidence of a torus index JSON report")
    t_check.add_argument("file", help="a report written by torus index --format json")

    circle = groups.add_parser("circle").add_subparsers(dest="command", required=True)
    c_index = command(circle, "index", _cmd_circle_index, "circle-index-formula")
    c_index.add_argument("--k", type=digits(1, EXACT_INPUT_DIGITS), required=True,
                         help=f"winding number, at most {EXACT_INPUT_DIGITS} digits")
    c_index.add_argument("--check-matrices", action="store_true",
                         help="also recount from the blocks' exact eigenvalue signs "
                              f"(k <= {CHECK_MATRICES_K_LIMIT})")

    leg = groups.add_parser("legendre").add_subparsers(dest="command", required=True)
    l_verify = command(leg, "verify", _cmd_legendre_verify, "legendre-charpoly-quintic-power",
                       help="each 5x5 component: charpoly == -quintic")
    for label in ("--m", "--n"):
        l_verify.add_argument(label, type=digits(1, EXACT_INPUT_DIGITS), required=True,
                              help=f"Fourier label, at most {EXACT_INPUT_DIGITS} digits")
    command(leg, "index", _cmd_legendre_index, "legendre-index-11-nullity-18",
            help="index 11 / nullity 18 ledger")
    l_desc = command(leg, "descartes", _cmd_legendre_descartes, "legendre-descartes-certificate",
                     help="six-sign certificate over a range")
    for label in ("--m", "--n"):
        l_desc.add_argument(label, type=_int_in(3, DESCARTES_RANGE_LIMIT), default=50,
                            help=f"range bound for {label[2:]}, 3..{DESCARTES_RANGE_LIMIT}")

    red = groups.add_parser("reduced").add_subparsers(dest="command", required=True)
    n_dim = digits(2, EXACT_INPUT_DIGITS)
    r_sphere = command(red, "sphere", _cmd_reduced, "reduced-index-floor-formula")
    r_sphere.add_argument("--n-dim", type=n_dim, required=True)
    r_sphere.add_argument("--radius", type=str, required=True)
    r_ell = command(red, "ellipsoid", _cmd_reduced, "reduced-ellipsoid-floor-formula")
    r_ell.add_argument("--n-dim", type=n_dim, required=True)
    r_ell.add_argument("--radius", type=str, required=True)
    r_ell.add_argument("--b", type=str, required=True)
    r_torus = command(red, "torus", _cmd_reduced_torus, "reduced-torus-index")
    r_torus.add_argument("--k", type=digits(1, EXACT_INPUT_DIGITS), required=True,
                         help=f"winding number, at most {EXACT_INPUT_DIGITS} digits")
    command(red, "bessel", _cmd_reduced_bessel, "bessel-nullity-direction")
    command(red, "conformal", _cmd_reduced_conformal, "conformal-diffeo-stability")

    non = groups.add_parser("noncompact").add_subparsers(dest="command", required=True)
    n_stable = command(non, "stable", _cmd_noncompact_stable, "noncompact-stability-certificate")
    n_stable.add_argument("--phase", type=str, default=None,
                          help="cubic coefficients a,b,c,d as exact rationals")
    n_hess = command(non, "hessian", _cmd_noncompact_hessian, "noncompact-hessian-form")
    n_hess.add_argument("--phase", type=str, default=None)
    command(non, "counterexample", _cmd_noncompact_counterexample,
            "noncompact-counterexample-value")
    return p


# -- command implementations ---------------------------------------------------------
#
# build_parser declares each subcommand with its handler and paper anchor.
# Each handler returns (inputs, results, table, ok), table a non-empty list of
# rows: dicts from column name to cell, each with the first row's keys in order.
# main writes the table into results as csv_header and csv_rows, wraps inputs
# and results in the report envelope, and exits EXIT_VERIFICATION if not ok.

def _cmd_torus_index(args) -> tuple[dict, dict, list[dict], bool]:
    results = index_nullity(args.k)._asdict()  # the evidence renders as lists, like every tuple
    return {"k": args.k}, results, [{name: results[name] for name in ScanRow._fields}], True


def _cmd_torus_spectrum(args) -> tuple[dict, dict, list[dict], bool]:
    lam_max = args.lambda_max if args.lambda_max is not None else 4 * args.k * args.k
    if lam_max > LAMBDA_MAX_LIMIT:  # only the default: the parser checks a given one
        raise UsageError(f"--lambda-max defaults to 4*k^2 = {_echo(str(lam_max))}, which "
                         f"must be <= {LAMBDA_MAX_LIMIT}; give a smaller --lambda-max")
    entries = [
        {
            "value_exact": str(e.eigenvalue),
            "value_float": float(e.eigenvalue),
            "multiplicity": e.multiplicity,
            "branches": list(e.branches),
        }
        for e in spectrum(args.k, lam_max)
    ]
    results = {
        "lambda_max": lam_max,
        "entries": entries,
    }
    table = [{**e, "branches": ";".join(e["branches"])} for e in entries]
    return {"k": args.k, "lambda_max": lam_max}, results, table, True


def _cmd_torus_scan(args) -> tuple[dict, dict, list[dict], bool]:
    ordered = conjecture_scan(args.k_max, workers=args.workers)
    flagged = [r.k for r in ordered if r.flagged]
    results = {
        "k_max": args.k_max,
        "all_nullity_five": not flagged,
        "flagged_k": flagged,
    }
    table = [r._asdict() for r in ordered]
    return {"k_max": args.k_max, "workers": args.workers}, results, table, not flagged


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
    schema = report.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # 2.0 == 2 in Python
        raise UsageError(f"{path} is not a schema {SCHEMA_VERSION} report; rerun torus index")
    results = report.get("results")
    if not isinstance(results, dict):
        raise UsageError(f"{path}: results is not an object")
    for name in ScanRow._fields:
        if type(results.get(name)) is not int:  # bool is not an integer here
            raise UsageError(f"{path}: results.{name} is not an integer")
    if not 1 <= results["k"] <= INDEX_K_LIMIT:  # torus index writes no other k
        raise UsageError(f"{path}: results.k must be >= 1 and <= {INDEX_K_LIMIT}")
    for name, width in (("negative_runs", 3), ("zero_pairs", 2), ("empty_row_witnesses", 2)):
        rows = results.get(name)
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == width and all(type(x) is int for x in r)
            for r in rows
        ):
            raise UsageError(f"{path}: results.{name} is not a list of {width}-integer lists")
    return results


def _cmd_torus_check(args) -> tuple[dict, dict, list[dict], bool]:
    res = _read_index_report(args.file)
    k, runs, zeros = res["k"], res["negative_runs"], res["zero_pairs"]
    failures = check_runs(k, runs, zeros, res["empty_row_witnesses"])
    if not failures:  # every entry lies in 1 <= n < 3k, so the totals are small
        failures = [
            f"{name} = {res[name]}, but the runs and zero pairs give {want}"
            for name, want in run_totals(k, runs, zeros)._asdict().items()
            if res[name] != want
        ]
    results = {
        "k": k,
        "verified": not failures,
        "failures": failures,
    }
    row = {"k": k, "runs": len(runs), "zero_pairs": len(zeros),
           "witnesses": len(res["empty_row_witnesses"]), "failures": len(failures),
           "verified": not failures}
    return {"file": args.file}, results, [row], not failures


def _cmd_circle_index(args) -> tuple[dict, dict, list[dict], bool]:
    if args.check_matrices and args.k > CHECK_MATRICES_K_LIMIT:
        raise UsageError(f"--check-matrices needs --k <= {CHECK_MATRICES_K_LIMIT}")
    idx, nul = circle_index_nullity(args.k)
    row = {"k": args.k, "index": idx, "nullity": nul}
    results = dict(row)
    ok = True
    if args.check_matrices:
        idx2, nul2 = circle_index_nullity_by_matrices(args.k)
        results["matrix_counts"] = {"index": idx2, "nullity": nul2}
        ok = (idx2, nul2) == (idx, nul)
    return {"k": args.k}, results, [row], ok


def _cmd_legendre_verify(args) -> tuple[dict, dict, list[dict], bool]:
    inputs = {"m": args.m, "n": args.n}
    try:
        rep = verify_p5_factorization(args.m, args.n)
    except CharpolyMismatchError as exc:
        results = {
            "matched": False,
            "detail": str(exc),
        }
        return inputs, results, [{**inputs, **results}], False
    results = {
        "matched": True,
        "block_order": rep.block_order,
        "quintic_coefficients": list(rep.quintic.coeffs),
    }
    return inputs, results, [{**inputs, "block_order": rep.block_order, "matched": True}], True


def _cmd_legendre_index(args) -> tuple[dict, dict, list[dict], bool]:
    led = legendre_index_nullity()
    table = [
        {"family": fam, "index": i, "nullity": nu}
        for (fam, _), i, nu in zip(LEDGER_FAMILIES, led.index_split, led.nullity_split)
    ]
    table.append({"family": "total", "index": led.index, "nullity": led.nullity})
    results = {
        "index": led.index,
        "nullity": led.nullity,
        "index_split": list(led.index_split),
        "nullity_split": list(led.nullity_split),
        "split_matches_cited": led.split_matches_cited,
        "axis_scans": {"m": led.axis_m_scanned_to, "n": led.axis_n_scanned_to},
    }
    return {}, results, table, (led.index, led.nullity) == (11, 18)


def _cmd_legendre_descartes(args) -> tuple[dict, dict, list[dict], bool]:
    rep = descartes_lemma_check(args.m, args.n)
    results = {
        "checked": rep.checked,
        "violations": [list(v) for v in rep.violations],
        "sturm_confirmed": rep.sturm_confirmed,
    }
    table = [{**rep._asdict(), "violations": len(rep.violations)}]
    ok = not rep.violations and rep.sturm_confirmed
    return {"m_max": args.m, "n_max": args.n}, results, table, ok


def _cmd_reduced(args) -> tuple[dict, dict, list[dict], bool]:
    """reduced sphere, and reduced ellipsoid, which adds --b."""
    radius = _parse_rational(args.radius, "--radius")
    ellipsoid = args.command == "ellipsoid"
    b = _parse_rational(args.b, "--b") if ellipsoid else 1  # b = 1 is the round sphere
    try:
        problem = ReducedProblem(n=args.n_dim, radius=radius, b=b)
        idx, nul = reduced_index_nullity(problem)
    except ValueError as exc:
        raise UsageError(str(exc))
    shape = {"radius": str(radius), "b": str(b)} if ellipsoid else {"radius": str(radius)}
    results = {"index": idx, "nullity": nul, "threshold_fourth_power": str(problem.quartic_constant())}
    if ellipsoid:
        results["critical_cos_2alpha"] = str(problem.critical_cos_2alpha())
        results["critical_latitude"] = problem.critical_latitude()
    table = [{"n": args.n_dim, **shape, "index": idx, "nullity": nul}]
    return {"n_dim": args.n_dim, **shape}, results, table, True


def _cmd_reduced_torus(args) -> tuple[dict, dict, list[dict], bool]:
    idx, nul = reduced_index_torus(args.k)
    results = {
        "index_reduced": idx,
        "nullity_reduced": nul,
    }
    return {"k": args.k}, results, [{"k": args.k, **results}], True


def _cmd_reduced_bessel(args) -> tuple[dict, dict, list[dict], bool]:
    rep = bessel_nullity_check()
    derivatives = [float(d) for d in rep.derivatives_at_zero]
    proof = {  # the quantities after the derivatives; the table names fourth_derivative d4
        "ratio": str(rep.ratio),
        "ratio_proved": rep.ratio_proved,
        "term_ratio": TERM_RATIO,
        "fourth_derivative_normalized": float(rep.fourth_derivative_normalized),
        "fourth_derivative_target": float(rep.fourth_derivative_target),
    }
    quantities = {**{f"d{i}_at_0": d for i, d in enumerate(derivatives, 1)},
                  **{name.replace("fourth_derivative", "d4"): v for name, v in proof.items()}}
    table = [{"quantity": name, "value": value} for name, value in quantities.items()]
    results = {"derivatives_at_zero": derivatives, **proof, "all_ok": rep.all_ok}
    return {}, results, table, rep.all_ok


def _cmd_reduced_conformal(args) -> tuple[dict, dict, list[dict], bool]:
    exact = conformal_hessian(PolynomialBump.make(center=0, halfwidth=1, power=6))
    value, positive = float(exact), exact > 0
    results = {
        "test_function": "polynomial bump (1-u^2)^6 on [-1, 1]",
        "hessian": value,
        "hessian_exact": str(exact),
        "positive": positive,
    }
    row = {"test_function": "(1-u^2)^6", "hessian": value, "positive": positive}
    return {}, results, [row], positive


_CANONICAL_PHASES = ("0,1,0,0", "1,0,1,0", "1,0,-2,0")


def _cmd_noncompact_stable(args) -> tuple[dict, dict, list[dict], bool]:
    texts = (args.phase,) if args.phase is not None else _CANONICAL_PHASES
    phases = [
        {**dict(zip(phase._fields, map(str, phase))), "stability": is_strictly_stable(phase).value,
         "integrand_min": str(integrand_min(phase))}
        for phase in map(_parse_phase, texts)
    ]
    return {"phase": args.phase}, {"phases": phases}, phases, True


def _cmd_noncompact_hessian(args) -> tuple[dict, dict, list[dict], bool]:
    phase = _parse_phase(args.phase) if args.phase is not None else COUNTEREXAMPLE_PHASE
    exact = hessian_form(phase, COUNTEREXAMPLE_SECTION)
    try:
        value = float(exact)
    except OverflowError as exc:  # a huge phase: the exact value is fine, its float is not
        raise UsageError(f"--phase {_echo(repr(args.phase))}: the hessian has no float value "
                         f"({exc})")
    results = {
        "section": "normal cos^6 bump on a half-period",
        "hessian": value,
        "hessian_exact": str(exact),
    }
    row = {**dict(zip(phase._fields, map(str, phase))), "hessian": value}
    return {"phase": args.phase}, results, [row], True


def _cmd_noncompact_counterexample(args) -> tuple[dict, dict, list[dict], bool]:
    exact = counterexample_value()
    lo, hi = Fraction(-3547, 1000), Fraction(-3527, 1000)  # around the cited -3.537
    ok = lo <= exact <= hi
    value, window = float(exact), [float(lo), float(hi)]
    results = {
        "value": value,
        "value_exact": str(exact),
        "window": window,
        "within_window": ok,
    }
    row = {"value": value, "window_lo": window[0], "window_hi": window[1], "within_window": ok}
    return {}, results, [row], ok


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        inputs, results, table, ok = args.run(args)
        results["csv_header"] = list(table[0])
        results["csv_rows"] = [list(row.values()) for row in table]
        report = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "command": f"{args.group} {args.command}",
            "inputs": inputs,
            "results": results,
            "paper_anchor": args.anchor,
        }
        text = RENDERERS[args.format](report)
    except UsageError as exc:
        print(f"bihindex: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bihindex: error: cannot write --output {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
