"""torus check: the independent O(k) verifier of torus index reports.

Every report torus index writes must verify; every single mutation of the
evidence (a run end moved, a run dropped or added, a zero pair dropped or
injected, a witness corrupted) must fail it, even with f, g, index and
nullity recomputed to match the mutated evidence; unreadable input ends in
one exit-1 line.
"""

import copy
import json
from math import isqrt

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


# k = 176 has a row past its last run below the cut, so its report carries a
# witness as well as runs
K = 176


@pytest.fixture(scope="module")
def report176():
    r = index_nullity(K)
    return {
        "k": K,
        "runs": [list(run) for run in r.negative_runs],
        "zeros": [list(z) for z in r.zero_pairs],
        "witnesses": [list(w) for w in r.empty_row_witnesses],
    }


def as_cli_report(capsys, evidence):
    """A torus index report carrying this evidence, with totals that match it."""
    report = index_report(capsys, evidence["k"])
    res = report["results"]
    res["negative_runs"] = evidence["runs"]
    res["zero_pairs"] = evidence["zeros"]
    res["empty_row_witnesses"] = evidence["witnesses"]
    res["f"] = sum(n_hi - n_lo + 1 for _, n_lo, n_hi in evidence["runs"])
    res["g"] = len(evidence["zeros"])
    res["index"] = 1 + 4 * (evidence["k"] - 1) + 4 * res["f"]
    res["nullity"] = 5 + 4 * res["g"]
    return report


def failures_of(evidence):
    return check_runs(evidence["k"], evidence["runs"], evidence["zeros"], evidence["witnesses"])


@pytest.mark.parametrize("k", [1, 2, 17, 155])
def test_torus_check_accepts_index_reports(capsys, tmp_path, k):
    code, captured = check_file(capsys, tmp_path, index_report(capsys, k))
    assert code == EXIT_OK, captured.out
    results = json.loads(captured.out)["results"]
    assert results["verified"] is True and results["failures"] == []


def test_check_runs_accepts_every_small_k_and_580():
    for k in [*range(1, 121), 155, 580]:
        r = index_nullity(k)
        assert check_runs(k, r.negative_runs, r.zero_pairs, r.empty_row_witnesses) == [], k


def _run_row(evidence, pred):
    return next(i for i, (_, n_lo, n_hi) in enumerate(evidence["runs"]) if pred(n_lo, n_hi))


# index of the first witness at k = 176: row m = 182, nv = 68 well inside the
# row, so moving nv either way breaks the local minimum
W = 0


def _shift(kind, delta):
    def mutate(ev):
        i = _run_row(ev, (lambda lo, hi: lo > 1) if kind == "lo" else (lambda lo, hi: hi > lo))
        ev["runs"][i][1 if kind == "lo" else 2] += delta
    return mutate


def _drop_run(ev):
    del ev["runs"][len(ev["runs"]) // 2]


def _drop_run_past_the_diagonal(ev):
    # a row m > k (so 2m^2 > k^2), where emptiness would need a witness
    del ev["runs"][_run_row(ev, lambda lo, hi: lo > 1)]


def _extra_run(ev):
    # a run in a row proved empty by a witness, with the witness left in place
    m = ev["witnesses"][W][0]
    ev["runs"].append([m, 1, 1])
    ev["runs"].sort()


def _extra_run_for_a_witness(ev):
    _extra_run(ev)
    del ev["witnesses"][W]


def _extra_run_far_past_the_cut(ev):
    # a run in a row that the cut 14m^2 < 15k^2 proves empty without evidence
    ev["runs"].append([3 * ev["k"] - 1, 1, 1])


def _one_row_past_the_cut(name, entry):
    def mutate(ev):
        ev[name].append([last_row(ev["k"]) + 1, *entry])
    return mutate


def _inject_zero_next_to_a_run(ev):
    m, _, n_hi = ev["runs"][10]
    ev["zeros"] = sorted(ev["zeros"] + [[m, n_hi + 1]])


def _inject_zero_inside_a_run(ev):
    m, n_lo, _ = ev["runs"][10]
    ev["zeros"] = sorted(ev["zeros"] + [[m, n_lo + 1]])


def _empty_run(ev):
    # lo > 1 keeps both ends inside 1 <= n, so only the order of the ends fails
    i = _run_row(ev, lambda lo, hi: lo > 1)
    ev["runs"][i][2] = ev["runs"][i][1] - 1


def _inject_zero_below_a_run(ev):
    # a row m > k, where the run starts past n = 1
    m, n_lo, _ = ev["runs"][_run_row(ev, lambda lo, hi: lo > 1)]
    ev["zeros"] = sorted(ev["zeros"] + [[m, n_lo - 1]])


def _corrupt_witness(position, delta):
    def mutate(ev):
        ev["witnesses"][W][position] += delta
    return mutate


def _zero_witness(ev):
    ev["witnesses"][W][1] = 0


def _drop_witness(ev):
    del ev["witnesses"][W]


MUTATIONS = {
    "n_hi+1": _shift("hi", 1),
    "n_hi-1": _shift("hi", -1),
    "n_lo+1": _shift("lo", 1),
    "n_lo-1": _shift("lo", -1),
    "n_lo-1 at n=1": lambda ev: ev["runs"][0].__setitem__(1, 0),
    "dropped run": _drop_run,
    "dropped run with 2m^2 > k^2": _drop_run_past_the_diagonal,
    "extra run in a witness row": _extra_run,
    "extra run replacing a witness": _extra_run_for_a_witness,
    "extra run far past the cut": _extra_run_far_past_the_cut,
    "extra run one row past the cut": _one_row_past_the_cut("runs", [1, 1]),
    "zero pair one row past the cut": _one_row_past_the_cut("zeros", [1]),
    "witness one row past the cut": _one_row_past_the_cut("witnesses", [1]),
    "injected zero next to a run": _inject_zero_next_to_a_run,
    "injected zero inside a run": _inject_zero_inside_a_run,
    "injected zero below a run": _inject_zero_below_a_run,
    "empty run": _empty_run,
    "witness nv+1": _corrupt_witness(1, 1),
    "witness nv-1": _corrupt_witness(1, -1),
    "witness nv=0": _zero_witness,
    "dropped witness": _drop_witness,
    "witness in a run row": lambda ev: ev["witnesses"].insert(0, [ev["runs"][-1][0], 1]),
    "witness far past the cut": lambda ev: ev["witnesses"].append([3 * ev["k"] - 1, 1]),
    "runs out of order": lambda ev: ev["runs"].reverse(),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_torus_check_rejects_mutated_report(capsys, tmp_path, report176, name):
    evidence = copy.deepcopy(report176)
    MUTATIONS[name](evidence)
    assert evidence != report176
    assert failures_of(evidence), name
    code, captured = check_file(capsys, tmp_path, as_cli_report(capsys, evidence))
    assert code == EXIT_VERIFICATION, name
    assert json.loads(captured.out)["results"]["verified"] is False


@pytest.mark.parametrize(
    "name,reason",
    [("empty run", "is empty"), ("injected zero below a run", "D != 0 at the zero pair")],
)
def test_a_mutation_fails_at_its_own_check(report176, name, reason):
    # without their own checks other checks would refuse these rows too (D >= 0
    # at an end of the run, a zero pair not next to the run), so name the
    # check each one reaches
    evidence = copy.deepcopy(report176)
    MUTATIONS[name](evidence)
    (failure,) = failures_of(evidence)
    assert reason in failure, failure


def test_dropped_zero_fails(monkeypatch, report176):
    # no interior zero of D occurs for k <= 1500, so the zero branch is driven
    # by a D that vanishes at one extra pair: just past the end of a run, and
    # at the minimum of a witness row (a double root, the row's only entry)
    run_m, _, n_hi = report176["runs"][10]
    witness_m, nv = report176["witnesses"][W]
    real = torus.discriminant
    for zero, edit in (
        ((run_m, n_hi + 1), lambda ev: None),
        ((witness_m, nv), lambda ev: ev["witnesses"].pop(W)),
    ):
        monkeypatch.setattr(
            torus, "discriminant", lambda k, m, n: 0 if (m, n) == zero else real(k, m, n)
        )
        listed = copy.deepcopy(report176)
        edit(listed)
        listed["zeros"] = [list(zero)]
        assert failures_of(listed) == [], zero
        assert failures_of(report176), f"the zero at {zero} was not listed"


def test_a_witness_at_either_end_of_a_tied_minimum_is_accepted(monkeypatch):
    # no row with a witness has D(n) = D(n + 1) at its minimum in the tested
    # ranges, so the tie is made: on the empty row k = 29, m = 30 (witness 11)
    # check_runs' D, torus.discriminant, becomes a convex row with equal minima
    # at n = 11 and 12.  Each is a local minimum; one step further is not
    k, m = 29, 30
    runs, zeros, witnesses = sign_runs(k)
    assert witnesses == [(m, 11)]
    real = torus.discriminant

    def tied(k_, m_, n):
        return (2 * n - 23) ** 2 + 1 if (k_, m_) == (k, m) else real(k_, m_, n)

    monkeypatch.setattr(torus, "discriminant", tied)
    for nv in (11, 12):
        assert check_runs(k, runs, zeros, [(m, nv)]) == [], nv
    for nv in (10, 13):
        assert check_runs(k, runs, zeros, [(m, nv)]) == [
            f"row m = {m}: D has no local minimum at nv = {nv}"]


@pytest.mark.parametrize("m0", [10, K + 1], ids=["one-end", "two-end"])
def test_a_zero_found_by_the_walk_is_listed_and_refused(monkeypatch, report176, m0):
    # no interior zero of D occurs for k <= 10^4, so a zero is injected into
    # the walk's answer: the upper end of one run reported as a zero, in row
    # 10 (m <= k, a run from n = 1) and in row k + 1 (past the axis zero)
    real = torus._walk

    def walk(k, *entry):
        runs, zeros, witnesses = real(k, *entry)
        ((i, (_, n_lo, n_hi)),) = [(i, run) for i, run in enumerate(runs) if run[0] == m0]
        assert zeros == [] and n_lo < n_hi
        runs[i] = (m0, n_lo, n_hi - 1)
        return runs, [(m0, n_hi)], witnesses

    monkeypatch.setattr(torus, "_walk", walk)
    r = index_nullity(K)
    ((_, _, n_hi),) = [run for run in report176["runs"] if run[0] == m0]
    assert r.zero_pairs == ((m0, n_hi),)
    assert (r.g, r.nullity) == (1, 9)
    assert r.f == sum(hi - lo + 1 for _, lo, hi in report176["runs"]) - 1
    assert check_runs(K, r.negative_runs, r.zero_pairs, r.empty_row_witnesses) == [
        f"row m = {m0}: D != 0 at the zero pair n = {n_hi}"
    ]


def _first_minimum(k, m):
    n_max = isqrt(torus.enumeration_bound(k) - m * m - 1)
    return min(range(1, n_max + 1), key=lambda n: discriminant(k, m, n))


def test_a_report_from_before_the_cut_fails_in_one_line(capsys, tmp_path):
    # reports written before the cut 14m^2 < 15k^2 and the one-end walk kept
    # witnesses for the rows up to 5m^2 < 7k^2, and for the empty rows with
    # 2m^2 > k^2 and m <= k (only k = 1 has one, (1, 1)); those rows now carry
    # no evidence, and one failure names the reason, not one per row.  The
    # runs and zero pairs are unchanged.
    k = 155
    r = index_nullity(k)
    old_witnesses = [
        [m, _first_minimum(k, m)] for m in range(last_row(k) + 1, isqrt(7 * k * k // 5) + 1)
    ]
    assert r.empty_row_witnesses == () and len(old_witnesses) == 23
    old_reports = [
        ({"k": k, "runs": [list(x) for x in r.negative_runs], "zeros": [],
          "witnesses": old_witnesses}, "past the cut 14m^2 < 15k^2"),
        ({"k": 1, "runs": [], "zeros": [], "witnesses": [[1, 1]]}, "in the rows m <= k = 1"),
    ]
    for evidence, reason in old_reports:
        code, captured = check_file(capsys, tmp_path, as_cli_report(capsys, evidence))
        assert code == EXIT_VERIFICATION
        (failure,) = json.loads(captured.out)["results"]["failures"]
        assert reason in failure and failure.endswith("rerun torus index"), failure


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
        path.write_text(good.replace('"schema": 2', '"schema": 1'))
    elif content == "schema as a float":
        path.write_text(good.replace('"schema": 2', '"schema": 2.0'))
    elif content == "runs as pairs":
        report = json.loads(good)
        report["results"]["negative_runs"] = [[1, 1], [2, 1]]
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
              "schema as a float": "is not a schema 2 report"}
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
    report["results"]["negative_runs"][-1][2] = int("9" * 4300)
    code, captured = check_file(capsys, tmp_path, report)
    assert code == EXIT_VERIFICATION and captured.err == ""
    results = json.loads(captured.out)["results"]
    assert results["verified"] is False and results["failures"]


def test_check_cost_is_linear_in_k(monkeypatch):
    # k = 10^4 has last_row(k) = 10350 rows below the cut 14m^2 < 15k^2, each
    # with a run or a witness; the check makes at most four exact
    # evaluations of D per row (at and next to the ends, or at and next to
    # the witness and at n = 1) and never searches
    k = 10_000
    runs, zeros, witnesses = sign_runs(k)
    calls = 0
    real = torus.discriminant

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("check_runs searched")

    monkeypatch.setattr(torus, "discriminant", counting)
    for name in ("sign_runs", "_walk"):
        monkeypatch.setattr(torus, name, forbidden)
    assert check_runs(k, runs, zeros, witnesses) == []
    rows = last_row(k)
    assert len(runs) + len(witnesses) == rows
    assert calls <= 4 * rows, calls


def test_huge_k_without_evidence_fails_fast():
    failures = check_runs(10**30, [], [], [])
    assert len(failures) == torus.CHECK_FAILURE_LIMIT + 1
    assert failures[-1].startswith("stopped at row m = 21")
