"""Fuzzing main(argv): every input ends in a report or a one-line diagnostic.

The exit code is 0, 1 or 2 and nothing raises or prints a traceback.  The
arguments are drawn from the real grammar with small numbers, so that no
case runs long, and --workers is never above 1, so that no case starts a
process; torus check reads random bytes, random JSON and random
torus-index-shaped reports.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihindex.cli import main  # noqa: E402
from bihindex.torus import index_nullity  # noqa: E402

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# text with no decimal digit, so that a random token never becomes a large number
words = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
small = st.integers(-3, 9).map(str)
positive = st.integers(1, 9).map(str)
number = st.one_of(positive, positive, small, st.sampled_from(["x", "", "1.5", "1e3", "0x10"]), words)
rational = st.sampled_from(
    ["1", "0", "-1", "1/2", "3/4", "0.25", "1e-3", "1e200", "1e400", "1/0", "x", "7/3",
     "1e-2000", "1e5000"]
)
phase = st.lists(rational, min_size=0, max_size=5).map(",".join)

# (group, command, {flag: strategy}); each flag is left out one time in four,
# so missing required flags are drawn too, except that legendre descartes
# always gets both bounds (its default 50 x 50 range takes about a second)
GRAMMAR = [
    ("torus", "index", {"--k": number}),
    ("torus", "spectrum", {"--k": number, "--lambda-max": number}),
    ("torus", "scan", {"--k-max": number}),
    ("circle", "index", {"--k": number, "--check-matrices": st.none()}),
    ("legendre", "verify", {"--m": small, "--n": small}),
    ("legendre", "descartes", {"--m": small, "--n": small}),
    ("legendre", "index", {}),
    ("reduced", "sphere", {"--n-dim": number, "--radius": rational}),
    ("reduced", "ellipsoid", {"--n-dim": number, "--radius": rational, "--b": rational}),
    ("reduced", "torus", {"--k": number}),
    ("reduced", "bessel", {}),
    ("reduced", "conformal", {}),
    ("noncompact", "stable", {"--phase": phase}),
    ("noncompact", "hessian", {"--phase": phase}),
    ("noncompact", "counterexample", {}),
    ("torus", "check", {}),
]
VOCAB = ["torus", "index", "check", "--k", "--format", "json", "csv", "-h", "--version"]


@st.composite
def argvs(draw):
    group, command, flags = draw(st.sampled_from(GRAMMAR))
    argv = [group, command]
    for flag, values in flags.items():
        if command == "descartes" or draw(st.integers(0, 3)) > 0:
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "md", "csv", "md", "xml"]))]
    if group == "torus" and command in ("index", "scan") and draw(st.booleans()):
        argv += ["--workers", draw(st.sampled_from(["1", "1", "1", "0", "x", "99999"]))]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.lists(st.sampled_from(VOCAB) | words, min_size=1, max_size=2))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv):
    code, _, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        assert len(err.splitlines()) == 1, (argv, err)


@FUZZ
@given(argvs())
def test_main_fuzz(argv):
    if argv[:2] == ["torus", "check"]:
        argv = argv[:2] + ["no/such/report.json"] + argv[2:]
    assert_clean(argv)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**40) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
entry = st.lists(st.integers(-2, 40), min_size=2, max_size=4)


@st.composite
def near_reports(draw):
    """A real torus index report for a small k with up to three edits."""
    k = draw(st.integers(1, 12))
    r = index_nullity(k)
    results = {
        "k": k, "f": r.f, "g": r.g, "index": r.index, "nullity": r.nullity,
        "negative_runs": [list(run) for run in r.negative_runs],
        "zero_pairs": [list(z) for z in r.zero_pairs],
        "empty_row_witnesses": [list(w) for w in r.empty_row_witnesses],
    }
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(results)))
        value = results[name]
        if not isinstance(value, list):
            results[name] = draw(st.integers(-2, 10**30) | json_values)
        elif value and draw(st.booleans()):
            row = draw(st.sampled_from(value))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(-2, 10**6) | json_values)
        else:
            value.insert(draw(st.integers(0, len(value))), draw(entry))
    schema = draw(st.sampled_from([2, 2, 2, 1, "2"]))
    return {"schema": schema, "command": "torus index", "results": results}


@FUZZ
@given(
    st.binary(max_size=200)
    | json_values.map(lambda v: json.dumps(v).encode())
    | near_reports().map(lambda v: json.dumps(v).encode())
    | near_reports().map(lambda v: json.dumps(v).encode())
)
def test_torus_check_fuzz(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_bytes(content)
        assert_clean(["torus", "check", str(path)])
