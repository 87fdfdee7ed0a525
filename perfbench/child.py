"""One workload run in a fresh process, started by run.py.

Reads the run spec as JSON on stdin: ``ops``, ``seconds``, ``trace`` and
``trace_file``.  Runs the operation list in passes until the next pass would
end after ``seconds``.  With tracing, an untraced warm-up pass comes first,
then traced and untraced passes alternate, at least one of each, so that
the tracing overhead compares warm passes.  Every result is checked
outside the timed region.  A speed sampler (speed.py) runs through every
pass, and each pass's times are also given in reference seconds.  Prints
one JSON line: the passes, the operation counts, the first failures, peak
RSS and the environment.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

import speed
import workloads as wl
from tracer import Tracer


def run_pass(ops: list[dict], refs: dict, tracer: Tracer | None) -> dict:
    """Run every operation once; time only the operations, then check each.

    A speed sampler runs through the pass; the time of its pieces is taken
    out of the operations.  ``wall_s`` and ``cpu_s`` are in reference
    seconds (speed.py), ``raw_wall_s`` and ``raw_cpu_s`` as measured.
    """
    raw_wall = raw_cpu = 0.0
    failures = []
    run = wl.run_op
    if tracer is not None:
        tracer.install()
        run = tracer.span("op", wl.run_op)
    try:
        with speed.Sampler() as sampler:
            for op in ops:
                spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    code, out = run(op)
                except Exception as exc:  # an operation that raises counts as failed
                    code, out = None, f"{type(exc).__name__}: {exc}"
                raw_wall += time.perf_counter() - t0 - (sampler.spent_wall - spent_wall)
                raw_cpu += time.process_time() - c0 - (sampler.spent_cpu - spent_cpu)
                try:
                    why = out if code is None else wl.check(op, code, out, refs)
                except Exception as exc:  # output the check cannot read
                    why = f"unreadable result: {type(exc).__name__}: {exc}"
                del out
                if why is not None:
                    failures.append(f"{wl.op_label(op)}: {why}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    piece_wall, piece_cpu = sampler.piece()
    result = {"wall_s": speed.scale(raw_wall, piece_wall), "cpu_s": speed.scale(raw_cpu, piece_cpu),
              "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu, "piece_wall_s": piece_wall,
              "piece_cpu_s": piece_cpu, "pieces": len(sampler.walls), "traced": tracer is not None,
              "ops": len(ops), "failures": failures}
    if tracer is not None:
        result["layer"] = tracer.metrics(len(ops), len(failures))
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    import numpy

    import bihindex
    import bihindex.cli
    import bihindex.scan

    refs = wl.load_refs()
    ops, seconds, trace = spec["ops"], spec["seconds"], spec["trace"]
    passes: list[dict] = []
    spent: list[float] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        passes.append(run_pass(ops, refs, tracer))
        spent.append(time.perf_counter() - t0)  # sampler pieces and checks included
        if tracer is not None:
            tracers.append(tracer)
        gc.collect()
        need_more = trace and len(passes) < 3
        elapsed = time.perf_counter() - start
        next_pass = max(spent[-2:])  # passes alternate when traced
        if not need_more and elapsed + next_pass > seconds:
            break
    if trace and spec.get("trace_file"):
        with open(spec["trace_file"], "w", encoding="utf-8") as fh:
            tracers[0].dump(fh)
    failures = [f for p in passes for f in p.pop("failures")]
    print(json.dumps({
        "passes": passes,
        "attempted": sum(p["ops"] for p in passes),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing_hooks": tracers[0].missing if tracers else [],
        "env": {
            "bihindex_file": bihindex.__file__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba_lane": getattr(bihindex.scan, "_HAVE_NUMBA", None),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
