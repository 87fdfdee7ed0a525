"""torus check: the independent O(k) verifier of torus index reports.

Every report torus index writes must verify; every single mutation of the
evidence (a run end moved, a run dropped, added, swapped or duplicated, g
off by one) must fail it, even with f, g, index and nullity recomputed to
match the mutated evidence; unreadable input, or a report of an older
schema, ends in one exit-1 line.  The evidence is one closed run of
D <= 0 a row, each inside the run of the row above it; the rows after the
last run carry none: the check proves the first of them empty, once, and
the nesting lemma gives the rest.  The cases of that proof, and of the zero
count g, count the calls of D they make.
"""

import copy
import json
from collections import Counter
from pathlib import Path

import pytest

import bihindex.cli as cli
import bihindex.torus as torus
from bihindex.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from bihindex.torus import check_runs, discriminant, index_nullity, last_row, sign_runs


def index_report(capsys, k):
    assert main(["torus", "index", "--k", str(k), "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def check_file(capsys, tmp_path, content):
    path = tmp_path / "report.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main(["torus", "check", str(path), "--format", "json"])
    captured = capsys.readouterr()
    return code, captured


# k = 176 has rows past its last run below the cut, and its last run lies past
# the axis zero m = k, so the first empty row is proved by a pass over that run
K = 176


@pytest.fixture(scope="module")
def report176():
    r = index_nullity(K)
    return {"k": K, "runs": [list(run) for run in r.runs], "g": r.g}


def as_cli_report(capsys, evidence):
    """A torus index report carrying this evidence, with totals that match it."""
    report = index_report(capsys, evidence["k"])
    res = report["results"]
    res["runs"] = evidence["runs"]
    res["g"] = evidence["g"]
    res["f"] = sum(n_hi - n_lo + 1 for _, n_lo, n_hi in evidence["runs"]) - evidence["g"]
    res["index"] = 1 + 4 * (evidence["k"] - 1) + 4 * res["f"]
    res["nullity"] = 5 + 4 * res["g"]
    return report


def failures_of(evidence):
    return check_runs(evidence["k"], evidence["runs"], evidence["g"])


@pytest.mark.parametrize("k", [1, 2, 17, 155])
def test_torus_check_accepts_index_reports(capsys, tmp_path, k):
    code, captured = check_file(capsys, tmp_path, index_report(capsys, k))
    assert code == EXIT_OK, captured.out
    results = json.loads(captured.out)["results"]
    assert results["verified"] is True and results["failures"] == []


def test_check_runs_accepts_every_small_k_and_580():
    for k in [*range(1, 121), 155, 580]:
        r = index_nullity(k)
        assert check_runs(k, r.runs, r.g) == [], k


def _run_row(evidence, pred):
    return next(i for i, (_, n_lo, n_hi) in enumerate(evidence["runs"]) if pred(n_lo, n_hi))


def _shrinking_row(evidence):
    """The first run whose n_hi lies below the n_hi of the run above it, so
    that n_hi + 1 lies inside the bracket and is tested."""
    runs = evidence["runs"]
    return next(i for i in range(1, len(runs)) if runs[i][2] < runs[i - 1][2])


def _shift(kind, delta):
    def mutate(ev):
        i = _run_row(ev, (lambda lo, hi: lo > 1) if kind == "lo" else (lambda lo, hi: hi > lo))
        ev["runs"][i][1 if kind == "lo" else 2] += delta
    return mutate


def _drop_run(ev):
    del ev["runs"][len(ev["runs"]) // 2]


def _drop_run_past_the_diagonal(ev):
    # a row m > k, where the run starts past n = 1
    del ev["runs"][_run_row(ev, lambda lo, hi: lo > 1)]


def _extra_run(ev):
    # a run in the first row past the last run, which the check proves empty;
    # at k = 176 that is m = 182, the row earlier reports gave a witness
    ev["runs"].append([ev["runs"][-1][0] + 1, 1, 1])


def _extra_run_for_a_witness(ev):
    # a one-pair run at that witness, the first minimum of D on the row, so
    # that both ends sit where D is least
    m = ev["runs"][-1][0] + 1
    nv = _first_minimum(ev["k"], m)
    ev["runs"].append([m, nv, nv])


def _extra_run_far_past_the_cut(ev):
    # a run in a row that the cut 14m^2 < 15k^2 proves empty without evidence
    ev["runs"].append([3 * ev["k"] - 1, 1, 1])


def _one_row_past_the_cut(ev):
    ev["runs"].append([last_row(ev["k"]) + 1, 1, 1])


def _zero_one_row_past_the_cut(ev):
    # a zero claimed at (last_row + 1, 1): a one-pair run there with D = 0
    _one_row_past_the_cut(ev)
    ev["g"] += 1


def _inject_zero_next_to_a_run(ev):
    # the run extended onto n_hi + 1, where D > 0, and claimed as a zero
    ev["runs"][_shrinking_row(ev)][2] += 1
    ev["g"] += 1


def _inject_zero_below_a_run(ev):
    # the same below a run in a row m > k, where the run starts past n = 1
    ev["runs"][_run_row(ev, lambda lo, hi: lo > 1)][1] -= 1
    ev["g"] += 1


def _empty_run(ev):
    # lo > 1 keeps both ends inside 1 <= n, so only the order of the ends fails
    i = _run_row(ev, lambda lo, hi: lo > 1)
    ev["runs"][i][2] = ev["runs"][i][1] - 1


def _swap_rows(ev):
    ev["runs"][5], ev["runs"][6] = ev["runs"][6], ev["runs"][5]


MUTATIONS = {
    "n_hi+1": _shift("hi", 1),
    "n_hi-1": _shift("hi", -1),
    "n_lo+1": _shift("lo", 1),
    "n_lo-1": _shift("lo", -1),
    "n_lo-1 at n=1": lambda ev: ev["runs"][0].__setitem__(1, 0),
    "dropped run": _drop_run,
    "dropped run with 2m^2 > k^2": _drop_run_past_the_diagonal,
    "dropped first run": lambda ev: ev["runs"].pop(0),
    "dropped last run": lambda ev: ev["runs"].pop(),
    "last run shrunk": lambda ev: ev["runs"][-1].__setitem__(2, ev["runs"][-1][1]),
    "extra run in a witness row": _extra_run,
    "extra run replacing a witness": _extra_run_for_a_witness,
    "extra run far past the cut": _extra_run_far_past_the_cut,
    "extra run one row past the cut": _one_row_past_the_cut,
    "zero pair one row past the cut": _zero_one_row_past_the_cut,
    "injected zero next to a run": _inject_zero_next_to_a_run,
    "injected zero inside a run": lambda ev: ev.__setitem__("g", ev["g"] + 1),
    "injected zero below a run": _inject_zero_below_a_run,
    "g-1": lambda ev: ev.__setitem__("g", ev["g"] - 1),
    "forged end 10^18": lambda ev: ev["runs"][-1].__setitem__(2, 10**18),
    "empty run": _empty_run,
    "runs out of order": lambda ev: ev["runs"].reverse(),
    "two rows swapped": _swap_rows,
    "row duplicated": lambda ev: ev["runs"].insert(6, list(ev["runs"][5])),
    "cut to three rows": lambda ev: ev.__setitem__("runs", ev["runs"][:3]),
    "row-0 entry": lambda ev: ev["runs"].insert(0, [0, 1, ev["k"]]),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_torus_check_rejects_mutated_report(capsys, tmp_path, report176, name):
    evidence = copy.deepcopy(report176)
    MUTATIONS[name](evidence)
    assert evidence != report176
    assert len(failures_of(evidence)) == 1, name
    code, captured = check_file(capsys, tmp_path, as_cli_report(capsys, evidence))
    assert code == EXIT_VERIFICATION, name
    assert json.loads(captured.out)["results"]["verified"] is False


@pytest.mark.parametrize(
    "name,reason",
    [
        ("empty run", "is empty"),
        ("injected zero below a run", "D > 0 at an end of the run"),
        ("injected zero inside a run", "g = 1, but D = 0 at 0 run ends"),
        ("row duplicated", "one a row, in the rows 1, 2, ..., r"),
    ],
)
def test_a_mutation_fails_at_its_own_check(report176, name, reason):
    # name the check each of these reaches: the bracket test for an empty
    # run, the end test for an end moved onto D > 0 (before the zero count,
    # which runs only once every row verifies), the zero count for a zero
    # inside a run, where D < 0, and the row sequence for a duplicated row
    evidence = copy.deepcopy(report176)
    MUTATIONS[name](evidence)
    (failure,) = failures_of(evidence)
    assert reason in failure, failure


def _first_minimum(k, m):
    return min(range(1, 3 * k), key=lambda n: discriminant(k, m, n))


def _vanishing_at(monkeypatch, zeros):
    """torus.discriminant, made to vanish at the pairs in zeros; no interior
    zero of D occurs for k <= 10^4, so the zero branches need a synthetic D."""
    real = torus.discriminant
    monkeypatch.setattr(
        torus, "discriminant", lambda k, m, n: 0 if (m, n) in zeros else real(k, m, n)
    )


def test_dropped_zero_fails(monkeypatch, report176):
    # D made to vanish at one extra pair: just past the end of a run, inside
    # the run above it, and at the minimum of the first empty row (a double
    # root, the row's only pair with D <= 0), where the pass over the run
    # above it must find it.  Listed, each verifies with g = 1; dropped, with
    # the runs of the real report and g = 0, each fails
    i = _shrinking_row(report176)
    run_m, _, n_hi = report176["runs"][i]
    first_empty = report176["runs"][-1][0] + 1
    nv = _first_minimum(K, first_empty)
    grown = copy.deepcopy(report176["runs"])
    grown[i][2] += 1
    for zero, runs in (
        ((run_m, n_hi + 1), grown),
        ((first_empty, nv), [*report176["runs"], [first_empty, nv, nv]]),
    ):
        monkeypatch.undo()
        _vanishing_at(monkeypatch, {zero})
        assert check_runs(K, runs, 1) == [], zero
        assert failures_of(report176), f"the zero at {zero} was not listed"


@pytest.mark.parametrize("m0", [10, K + 1], ids=["one-end", "two-end"])
def test_a_zero_found_by_the_walk_is_listed_and_refused(monkeypatch, report176, m0):
    # the walk is made to count one zero, as it would if D vanished at the
    # upper end of the run of row 10 (m <= k, a run from n = 1) or of row
    # k + 1 (past the axis zero): g and the totals carry it, the check
    # refuses it where D does not vanish and accepts it where D does
    real = torus._walk

    def walk(k, *entry):
        runs, g = real(k, *entry)
        assert g == 0
        return runs, 1

    monkeypatch.setattr(torus, "_walk", walk)
    r = index_nullity(K)
    assert [list(run) for run in r.runs] == report176["runs"]
    assert (r.g, r.nullity) == (1, 9)
    assert r.f == sum(hi - lo + 1 for _, lo, hi in report176["runs"]) - 1
    assert check_runs(K, r.runs, r.g) == ["g = 1, but D = 0 at 0 run ends"]
    ((_, n_lo, n_hi),) = [run for run in r.runs if run[0] == m0]
    assert n_lo < n_hi
    _vanishing_at(monkeypatch, {(m0, n_hi)})
    assert check_runs(K, r.runs, r.g) == []


def test_a_schema_2_report_is_refused_in_one_line(capsys, tmp_path):
    # the k = 2 report of schema 2 split the evidence into negative_runs and
    # zero_pairs; its evidence reads differently, so it is refused, not read
    golden = Path(__file__).parent / "golden" / "torus_index_k2.json"
    report = json.loads(golden.read_text(encoding="utf-8"))
    report["schema"] = 2
    report["results"]["negative_runs"] = report["results"].pop("runs")
    report["results"]["zero_pairs"] = []
    code, captured = check_file(capsys, tmp_path, json.dumps(report, sort_keys=True, indent=2))
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.splitlines() == [
        f"bihindex: error: {tmp_path / 'report.json'} is not a schema 3 report; rerun torus index"
    ]


def count_calls(monkeypatch, limit):
    """The row m of each evaluation of D by check_runs (torus.discriminant);
    past limit evaluations it raises, so a check that does not stop fails."""
    rows = []
    real = torus.discriminant

    def counting(k, m, n):
        rows.append(m)
        if len(rows) > limit:
            raise AssertionError(f"more than {limit} evaluations of D")
        return real(k, m, n)

    monkeypatch.setattr(torus, "discriminant", counting)
    return rows


def test_a_report_cut_short_below_the_axis_zero_fails_at_d1(monkeypatch, report176):
    # the rows m >= 100 dropped: row 100 <= k is the first empty row, and
    # D(1) alone proves it has a run (the one-end lemma)
    m = 100
    evidence = dict(report176, runs=[run for run in report176["runs"] if run[0] < m])
    rows = count_calls(monkeypatch, 4 * (m - 1) + 1)
    assert failures_of(evidence) == [f"row m = {m}: D(1) <= 0 but the row has no run"]
    assert max(rows) == m and rows.count(m) == 1


def test_an_entry_past_the_first_empty_row_is_refused(monkeypatch):
    # k = 10^4 has 11 empty rows below the cut; a run in the second of them
    # leaves the rows of the runs short of 1, 2, ..., r, and runs in every
    # row up to one past the cut give r > last_row(k): each is refused before
    # any evaluation of D
    k = 10_000
    runs, g = sign_runs(k)
    first_empty = runs[-1][0] + 1
    assert last_row(k) - first_empty + 1 == 11
    rows = count_calls(monkeypatch, 0)
    past_the_cut = [(m, 1, 1) for m in range(first_empty, last_row(k) + 2)]
    for forged in ([*runs, (first_empty + 1, 1, 1)], [*runs, *past_the_cut]):
        assert check_runs(k, forged, g) == [
            f"the runs must be one a row, in the rows 1, 2, ..., r with r <= {last_row(k)} "
            "(the cut 14m^2 < 15k^2, past which D > 0 is proved); rerun torus index"
        ]
    assert rows == []


def test_a_dropped_last_run_fails_inside_the_run_above(monkeypatch, report176):
    # the last run, in a row m > k, dropped: m is the first empty row, and the
    # pass over the run of row m - 1 finds the lower end of row m's run
    *kept, (m, n_lo, n_hi) = report176["runs"]
    _, lo, hi = kept[-1]
    assert m > K and lo <= n_lo <= n_hi <= hi
    rows = count_calls(monkeypatch, 4 * len(kept) + hi - lo + 1)
    assert check_runs(K, kept, 0) == [f"row m = {m}: D({n_lo}) <= 0 but the row has no run"]
    assert max(rows) == m


def test_a_forged_run_end_fails_without_the_pass(monkeypatch, report176):
    # a last run reaching n = 10^18 fails the bracket test, the run of the row
    # above it, before any evaluation of D on its row; the pass over it at the
    # first empty row would never end, so it runs only after every row verifies
    evidence = copy.deepcopy(report176)
    m = evidence["runs"][-1][0]
    evidence["runs"][-1][2] = 10**18
    _, lo, hi = evidence["runs"][-2]
    rows = count_calls(monkeypatch, 4 * len(evidence["runs"]))
    assert failures_of(evidence) == [
        f"row m = {m}: the run is empty or not inside {lo}..{hi}, the run of row {m - 1}"
    ]
    assert max(rows) < m


def test_report_totals_are_checked(capsys, tmp_path):
    report = index_report(capsys, 17)
    report["results"]["index"] += 4
    code, captured = check_file(capsys, tmp_path, report)
    assert code == EXIT_VERIFICATION
    assert json.loads(captured.out)["results"]["failures"][0].startswith("index = ")


@pytest.mark.parametrize(
    "content",
    [
        "truncated",
        "missing",
        "a directory",
        "circle index",
        "schema 1",
        "schema as a float",
        "runs as pairs",
        "k as bool",
        "not utf-8",
        "a huge integer",
        "results as a list",
        "above the size limit",
    ],
)
def test_torus_check_malformed_input_gives_one_line(capsys, monkeypatch, tmp_path, content):
    path = tmp_path / "report.json"
    good = json.dumps(index_report(capsys, 3))
    if content == "truncated":
        path.write_text(good[: len(good) // 2])
    elif content == "a directory":
        path = tmp_path
    elif content == "circle index":
        assert main(["circle", "index", "--k", "3", "--output", str(path)]) == EXIT_OK
    elif content == "schema 1":
        path.write_text(good.replace('"schema": 3', '"schema": 1'))
    elif content == "schema as a float":
        path.write_text(good.replace('"schema": 3', '"schema": 3.0'))
    elif content == "runs as pairs":
        report = json.loads(good)
        report["results"]["runs"] = [[1, 1], [2, 1]]
        path.write_text(json.dumps(report))
    elif content == "k as bool":
        path.write_text(good.replace('"k": 3', '"k": true'))
    elif content == "not utf-8":
        path.write_bytes(b"\xff\xfe" + good.encode())
    elif content == "a huge integer":
        path.write_text(good.replace('"k": 3', '"k": 1' + "0" * 5000))
    elif content == "results as a list":
        report = json.loads(good)
        report["results"] = list(report["results"].values())
        path.write_text(json.dumps(report))
    elif content == "above the size limit":
        path.write_text(good)
        monkeypatch.setattr(cli, "CHECK_FILE_LIMIT", len(good) - 1)
    assert main(["torus", "check", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("bihindex: error: ")
    reason = {"results as a list": "results is not an object",
              "above the size limit": f"is larger than {len(good) - 1} bytes",
              "schema as a float": "is not a schema 3 report"}
    assert reason.get(content, "") in captured.err


def test_numbers_too_long_to_print_end_in_one_line_or_a_report(capsys, tmp_path):
    # the index 1 + 4(k - 1) + 4f of a 4300-digit k or run end has 4301 digits,
    # more than Python prints; a k above INDEX_K_LIMIT is refused, and the
    # totals are compared only once the runs verify
    report = index_report(capsys, 2)
    report["results"]["k"] = int("9" * 4300)
    code, captured = check_file(capsys, tmp_path, report)
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("bihindex: error: ")
    report = index_report(capsys, 2)
    report["results"]["runs"][-1][2] = int("9" * 4300)
    code, captured = check_file(capsys, tmp_path, report)
    assert code == EXIT_VERIFICATION and captured.err == ""
    results = json.loads(captured.out)["results"]
    assert results["verified"] is False and results["failures"]


def test_check_cost_is_linear_in_k(monkeypatch):
    # k = 10^4 has runs in the rows 1..r and its first empty row r + 1 below
    # the cut 14m^2 < 15k^2 and past the axis zero m = k; the check makes at
    # most four exact evaluations of D per run (at its ends, and next to them
    # inside the bracket), one pass over the run of row r at row r + 1, none
    # past r + 1, and never searches
    k = 10_000
    runs, g = sign_runs(k)
    r = len(runs)
    _, lo, hi = runs[-1]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("check_runs searched")

    for name in ("sign_runs", "_walk"):
        monkeypatch.setattr(torus, name, forbidden)
    rows = count_calls(monkeypatch, 4 * r + hi - lo + 1)
    assert check_runs(k, runs, g) == []
    assert k < r + 1 <= last_row(k)
    per_row = Counter(rows)
    assert sorted(per_row) == list(range(1, r + 2))
    assert max(per_row[m] for m in range(1, r + 1)) <= 4
    assert per_row[r + 1] == hi - lo + 1


def test_the_zero_count_is_checked(monkeypatch, report176):
    # no real k <= 10^4 has a zero, so D is made to vanish at run ends: at the
    # low end, the high end and both ends of a run, and at a one-pair run
    # added in the first empty row.  The ends with D = 0 must number g, and
    # g - 1 and g + 1 each fail in one line
    runs = report176["runs"]
    i = _run_row(report176, lambda lo, hi: lo > 1)
    m, lo, hi = runs[i]
    first_empty = runs[-1][0] + 1
    nv = _first_minimum(K, first_empty)
    _, top_lo, top_hi = runs[-1]
    for zeros, evidence in (
        ({(m, lo)}, runs),
        ({(10, runs[9][2])}, runs),
        ({(m, lo), (m, hi)}, runs),
        ({(first_empty, nv)}, [*runs, [first_empty, nv, nv]]),
    ):
        monkeypatch.undo()
        _vanishing_at(monkeypatch, zeros)
        synthetic = torus.discriminant
        g, r = len(zeros), len(evidence)
        for claimed in (g - 1, g, g + 1):
            monkeypatch.setattr(torus, "discriminant", synthetic)
            rows = count_calls(monkeypatch, 4 * r + top_hi - top_lo + 1)
            failures = check_runs(K, evidence, claimed)
            if claimed == g:
                assert failures == [], zeros
            else:
                assert failures == [f"g = {claimed}, but D = 0 at {g} run ends"], zeros
            per_row = Counter(rows)
            assert max(per_row[m] for m in range(1, r + 1)) <= 4
            # the first empty row is proved empty only once the count holds
            passed = claimed == g and r < last_row(K)
            assert per_row[r + 1] == (top_hi - top_lo + 1 if passed else 0)


def test_huge_k_without_evidence_fails_fast(monkeypatch):
    # no evidence: row 1 is the first empty row, refused by D(1) at once
    rows = count_calls(monkeypatch, 1)
    assert check_runs(10**30, [], 0) == ["row m = 1: D(1) <= 0 but the row has no run"]
    assert rows == [1]
    # forged runs in 30 rows fail row by row, up to CHECK_FAILURE_LIMIT
    monkeypatch.undo()
    failures = check_runs(10**30, [(m, 1, 1) for m in range(1, 31)], 0)
    assert len(failures) == torus.CHECK_FAILURE_LIMIT + 1
    assert failures[-1].startswith("stopped at row m = 21")
