"""The benchmark's four workloads: seeded inputs, how one operation runs, and
the semantic check of its result against the stored references.

An operation is a JSON-ready dict: ``{"argv": [...]}`` runs
``bihindex.cli.main(argv)`` with stdout captured; ``{"scan": [k_min, k_max]}``
calls ``bihindex.scan.conjecture_scan(k_max, workers=1, k_min=k_min)``.
The seed only chooses the inputs; the program never sees it.  NOTES.md gives
the reason for each workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

WORKLOADS = ("scan-300", "scan-tail", "index", "certify")
REFS_PATH = Path(__file__).with_name("refs.json")

SCAN_K_MAX = 300
TAIL_K_MIN, TAIL_K_MAX = 1496, 1500

# index: k = 155 always, plus one k near each centre.  The jitter is small so
# that the O(k^2) work, and with it wall_s, barely depends on the seed.
INDEX_REFERENCE_K = 155
INDEX_CENTERS = (110, 250, 400, 580)
INDEX_JITTER = 4

DESCARTES_RANGE = 50
VERIFY_MAX = 12  # verify blocks (m, n) are drawn from 1..VERIFY_MAX squared
VERIFY_BLOCKS = 3
CIRCLE_K_RANGE = (40, 50)

ROW_FIELDS = ("k", "f", "g", "index", "nullity")


def index_pool() -> list[int]:
    """Every k the index workload can draw; refs.json holds a row for each."""
    ks = {INDEX_REFERENCE_K}
    for c in INDEX_CENTERS:
        ks.update(range(c - INDEX_JITTER, c + INDEX_JITTER + 1))
    return sorted(ks)


def verify_pool() -> list[tuple[int, int]]:
    return [(m, n) for m in range(1, VERIFY_MAX + 1) for n in range(1, VERIFY_MAX + 1)]


def _cli(*argv: object) -> dict:
    return {"argv": [str(a) for a in argv]}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed operation list of one run; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-300":
        return [_cli("torus", "scan", "--k-max", SCAN_K_MAX, "--format", "csv", "--workers", 1)]
    if workload == "scan-tail":
        return [{"scan": [TAIL_K_MIN, TAIL_K_MAX]}]
    if workload == "index":
        ks = [INDEX_REFERENCE_K] + [c + rng.randint(-INDEX_JITTER, INDEX_JITTER) for c in INDEX_CENTERS]
        return [_cli("torus", "index", "--k", k, "--format", "json", "--workers", 1) for k in sorted(ks)]
    if workload == "certify":
        blocks = sorted(rng.sample(verify_pool(), VERIFY_BLOCKS))
        circle_k = rng.randint(*CIRCLE_K_RANGE)
        return [
            _cli("legendre", "index"),
            _cli("legendre", "descartes", "--m", DESCARTES_RANGE, "--n", DESCARTES_RANGE),
            *(_cli("legendre", "verify", "--m", m, "--n", n) for m, n in blocks),
            _cli("circle", "index", "--k", circle_k, "--check-matrices"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def op_label(op: dict) -> str:
    if "argv" in op:
        return " ".join(op["argv"])
    k_min, k_max = op["scan"]
    return f"conjecture_scan({k_max}, k_min={k_min})"


def run_op(op: dict) -> tuple[int, object]:
    """(exit code, output) of one operation; exceptions propagate."""
    if "argv" in op:
        from bihindex import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op["argv"]))
        return code, buf.getvalue()
    from bihindex import scan

    k_min, k_max = op["scan"]
    rows = scan.conjecture_scan(k_max, workers=1, k_min=k_min)
    return 0, [tuple(getattr(r, name) for name in ROW_FIELDS) for r in rows]


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- semantic checks: each returns None when the result is right, else why not --

def _options(argv: list[str]) -> dict[str, str]:
    return {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def _check_rows(rows: list[tuple[int, ...]], ks: range, refs: dict) -> str | None:
    got_ks = [r[0] for r in rows]
    if got_ks != list(ks):
        return f"rows for k={got_ks[:3]}... instead of k={ks.start}..{ks.stop - 1}"
    for row in rows:
        want = refs["rows"][str(row[0])]
        if list(row[1:]) != want:
            return f"k={row[0]}: (f, g, index, nullity)={list(row[1:])}, reference {want}"
    return None


def check(op: dict, code: int, out: object, refs: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if "scan" in op:
        k_min, k_max = op["scan"]
        return _check_rows(out, range(k_min, k_max + 1), refs)
    argv = op["argv"]
    opts = _options(argv)
    command = tuple(argv[:2])
    if command == ("torus", "scan"):
        rows = [tuple(int(rec[name]) for name in ROW_FIELDS) for rec in csv.DictReader(io.StringIO(out))]
        return _check_rows(rows, range(1, int(opts["--k-max"]) + 1), refs)
    res = json.loads(out)["results"]
    if command == ("torus", "index"):
        k = int(opts["--k"])
        got = [res[name] for name in ROW_FIELDS[1:]]
        want = refs["rows"][str(k)]
        return None if got == want else f"k={k}: (f, g, index, nullity)={got}, reference {want}"
    if command == ("legendre", "index"):
        ref = refs["legendre_index"]
        got = {name: res[name] for name in ref}
        return None if got == ref else f"ledger {got}, reference {ref}"
    if command == ("legendre", "descartes"):
        ref = refs["descartes"]
        ok = (res["checked"] == ref["checked"] and res["violations"] == []
              and res["sturm_confirmed"] is True)
        return None if ok else (
            f"checked={res['checked']} violations={res['violations'][:3]} "
            f"sturm_confirmed={res['sturm_confirmed']}, reference checked={ref['checked']}")
    if command == ("legendre", "verify"):
        key = f"{opts['--m']},{opts['--n']}"
        want = refs["p5"][key]
        ok = res.get("matched") is True and res.get("quintic_coefficients") == want
        return None if ok else f"({key}): matched={res.get('matched')}, quintic differs from reference"
    if command == ("circle", "index"):
        k = int(opts["--k"])
        want = {"index": 1 + 2 * (k - 1), "nullity": 3}
        got = {"index": res["index"], "nullity": res["nullity"]}
        ok = got == want and res.get("matrix_counts") == want
        return None if ok else f"k={k}: {got}, matrix {res.get('matrix_counts')}, reference {want}"
    return f"no check for command {' '.join(command)}"
