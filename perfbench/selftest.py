"""Self-test of the benchmark.  Run from the repository root (about four minutes):

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that
  * a tampered result (one altered f in a scan row, index 88433 at k = 155,
    a wrong quintic, an operation that raises) counts as a failed operation,
    and so lowers ok_ratio = 1 - fail_ratio;
  * every metric in BENCHMARK.json appears in run.py's output with its unit,
    and nothing else does;
  * the count metrics repeat exactly between two traced runs, and on scan-300
    match the expected 4,173,186 exact evaluations and 8,363,561 negative pairs;
  * run.py exits non-zero without a result where only BENCHMARK.json and
    perfbench/ exist;
  * the speed sampler's pieces are taken out of the work they interrupt, and
    work made of the sampler's own loop reads its reference time.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import speed
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_SCAN_300 = {"scan.exact_evals": 4173186, "scan.neg_pairs": 8363561}


def failures_with(module, attr: str, replacement, op: dict, refs: dict) -> list[str]:
    """Failures of one pass over ``op`` while ``module.attr`` is replaced."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        return child.run_pass([op], refs, None)["failures"]
    finally:
        setattr(module, attr, original)


def test_tampering_is_caught(refs: dict) -> None:
    import bihindex.cli
    import bihindex.scan

    scan_op = {"argv": ["torus", "scan", "--k-max", "20", "--format", "csv", "--workers", "1"]}
    index_op = {"argv": ["torus", "index", "--k", "155", "--format", "json", "--workers", "1"]}
    verify_op = {"argv": ["legendre", "verify", "--m", "2", "--n", "3"]}
    assert child.run_pass([scan_op, index_op, verify_op], refs, None)["failures"] == []

    real_row = bihindex.scan.scan_row

    def row_with_altered_f(k):
        row = real_row(k)
        return dataclasses.replace(row, f=row.f + 1) if k == 17 else row

    real_index = bihindex.cli.index_nullity

    def index_from_truncated_table(k):
        return dataclasses.replace(real_index(k), index=88433)

    def raises(*_args):
        raise RuntimeError("injected")

    real_verify = bihindex.cli.verify_p5_factorization

    def wrong_quintic(m, n):
        rep = real_verify(m, n)
        return dataclasses.replace(rep, quintic=rep.quintic * 2)

    cases = [
        (bihindex.scan, "scan_row", row_with_altered_f, scan_op, "k=17"),
        (bihindex.cli, "index_nullity", index_from_truncated_table, index_op, "88433"),
        (bihindex.cli, "verify_p5_factorization", wrong_quintic, verify_op, "quintic"),
        (bihindex.cli, "index_nullity", raises, index_op, "RuntimeError"),
    ]
    for module, attr, replacement, op, needle in cases:
        failures = failures_with(module, attr, replacement, op, refs)
        assert len(failures) == 1 and needle in failures[0], (attr, failures)

    tampered_csv = "k,f,g,index,nullity\n1,0,0,1,5\n2,1,0,9,5\n"
    assert wl.check({"argv": ["torus", "scan", "--k-max", "2"]}, 0, tampered_csv, refs)
    print("ok: tampered results count as failed operations")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def test_metrics_and_units() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result_of(run_bench("certify", trace))["metrics"]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in metrics.items()}
        assert got == want, (section, got, want)
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in metrics.values()), metrics
    print("ok: every metric appears with its unit")


def test_counts_repeat() -> None:
    counts = [n for n, u in ((m["name"], m["unit"]) for m in SPEC["per_layer"]) if u in ("count", "B", "bit")]
    for workload in wl.WORKLOADS:
        first, second = (result_of(run_bench(workload, 1))["metrics"] for _ in range(2))
        for name in counts:
            assert first[name]["value"] == second[name]["value"], (workload, name)
        if workload == "scan-300":
            for name, value in EXPECTED_SCAN_300.items():
                assert first[name]["value"] == value, (name, first[name]["value"])
        print(f"ok: {workload}: count metrics repeat exactly "
              f"(exact_evals={first['scan.exact_evals']['value']}, "
              f"torus.neg_pairs={first['torus.neg_pairs']['value']}, "
              f"order_cube_sum={first['matrices.order_cube_sum']['value']}, "
              f"trace_overhead={first['bench.trace_overhead']['value']:.2f})")


def test_bare_directory_fails() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("certify", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok: no result and a non-zero exit without the sources")


def test_sampler() -> None:
    pieces, ratios = 200, []
    for _ in range(3):
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            for _ in range(pieces):
                speed._piece()
            raw = time.perf_counter() - t0 - sampler.spent_wall
        assert len(sampler.walls) >= 4, sampler.walls
        ratios.append(speed.scale(raw, sampler.piece()[0]) / (pieces * speed.REF_PIECE_S))
    assert 0.85 < statistics.median(ratios) < 1.15, ratios
    print(f"ok: the sampled loop reads {statistics.median(ratios):.3f} of its reference time")


def main() -> int:
    test_sampler()
    test_tampering_is_caught(wl.load_refs())
    test_metrics_and_units()
    test_bare_directory_fails()
    test_counts_repeat()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
