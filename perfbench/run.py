"""bihindex benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: scan-300, scan-tail, index, certify (see NOTES.md).  The seed
chooses the inputs; the program receives only the generated k and (m, n)
lists.  The workload runs in its own fresh process with a pinned
environment.  End-to-end times are in reference seconds: scaled by the
machine's speed measured while they ran (speed.py).  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` a separate traced
run gives the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exits 1
without a result if the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl
from tracer import LAYER_METRICS

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# setup_s is the median of this many fresh interpreter starts, half before and
# half after the workload process, so that it samples the whole run's window
# of machine load; one discarded start warms the page and bytecode caches.
SETUP_STARTS = 16
SETUP_CODE = "import bihindex.cli as cli; cli.build_parser()"
RUN_LIMIT_S = 170  # the whole run, set-up starts included
PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # starts reuse bytecode, as a user's CLI does
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(env: dict[str, str], starts: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of fresh interpreters that import bihindex.cli
    and build the parser; each start is scaled by the speed probes right
    before and right after it."""
    times, probes = [], [speed.probe()[0]]
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up start failed: {proc.stderr.strip()[-500:]}")
        probes.append(speed.probe()[0])
    return [(t, speed.scale(t, (a + b) / 2)) for t, a, b in zip(times, probes, probes[1:])]


def run_child(root: Path, env: dict[str, str], spec: dict, deadline: float) -> dict:
    child = Path(__file__).with_name("child.py")
    try:
        proc = subprocess.run([sys.executable, str(child)], input=json.dumps(spec), env=env,
                              capture_output=True, text=True, cwd=root,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the workload process ran past the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_state(root: Path) -> dict[str, object]:
    """Git sha when the checkout is a git repository, and a digest of src/ always."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args: argparse.Namespace, root: Path) -> tuple[dict, dict]:
    """(result, environment record) of one run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (root / "src" / "bihindex" / "__init__.py").is_file():
        raise BenchError(f"no src/bihindex under {root}; run from the repository root")
    ops = wl.make_ops(args.workload, args.seed)
    env = child_env(root)
    setup = [] if args.trace else measure_setup(env, 1 + SETUP_STARTS // 2, deadline)[1:]
    trace_file = None
    if args.trace:
        out_dir = Path(__file__).with_name("out")
        out_dir.mkdir(exist_ok=True)
        trace_file = str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    res = run_child(root, env, {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
                                "trace_file": trace_file}, deadline)
    if not args.trace:
        setup += measure_setup(env, SETUP_STARTS - len(setup), deadline)
    if not Path(res["env"]["bihindex_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"imported bihindex from {res['env']['bihindex_file']}, not from {root / 'src'}")

    plain = [p for p in res["passes"] if not p["traced"]]
    if args.trace:
        traced = [p for p in res["passes"] if p["traced"]]
        layer = dict(traced[0]["layer"])  # counts repeat exactly from pass to pass
        for name, unit in LAYER_METRICS.items():
            if unit == "s":
                layer[name] = statistics.median(p["layer"][name] for p in traced)
        warm = statistics.median(p["wall_s"] for p in plain[1:])  # plain[0] is the warm-up
        layer["bench.trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / warm
        metrics = {name: metric(layer[name], unit) for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **source_state(root), **res["env"],
        "nproc": len(os.sched_getaffinity(0)), "pinned_env": PINNED,
        "ops": [wl.op_label(op) for op in ops],
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "piece_wall_s",
                                        "piece_cpu_s", "pieces", "traced")}
                   for p in res["passes"]],
        "reference_piece_s": speed.REF_PIECE_S,
        "setup_starts_s": setup, "missing_hooks": res["missing_hooks"],
        "failures": res["failures"], "trace_file": trace_file,
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, record


def _stop(signum: int, _frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, record = measure(args, Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for why in record["failures"]:
        print(f"perfbench: failed: {why}", file=sys.stderr)
    print("env " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
