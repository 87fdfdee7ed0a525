"""Tracing from the benchmark's side: rebind public functions where their
callers look them up, record spans at coarse boundaries, keep only an
aggregate count and time for hot leaves, and turn both into the per-layer
metrics.

Modules import with ``from .x import name``, so a hook replaces the name in
the calling module (``bihindex.scan.discriminant``, not
``bihindex.torus.discriminant``).  A hook whose target no longer exists is
skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

# (module, function, kind): a "span" records one span per call, named after
# the function; a "leaf" only adds to a call count and a busy time.
HOOKS = (
    ("bihindex.scan", "scan_row", "span"),
    ("bihindex.scan", "discriminant", "leaf"),
    ("bihindex.cli", "index_nullity", "span"),
    ("bihindex.torus", "interior_sign_scan", "span"),
    ("bihindex.cli", "legendre_index_nullity", "span"),
    ("bihindex.legendre", "build_legendre_block", "span"),
    ("bihindex.legendre", "p5_coefficients", "leaf"),
    ("bihindex.legendre", "charpoly_exact", "span"),
    ("bihindex.circle", "charpoly_exact", "span"),
    ("bihindex.legendre", "count_roots", "leaf"),
    ("bihindex.legendre", "count_roots_with_multiplicity", "span"),
    ("bihindex.circle", "count_roots_with_multiplicity", "span"),
)

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "scan.rows": "count",
    "scan.row_busy_s": "s",
    "scan.row_max_s": "s",
    "scan.exact_evals": "count",
    "scan.exact_busy_s": "s",
    "scan.neg_pairs": "count",
    "torus.index_busy_s": "s",
    "torus.interior_scan_busy_s": "s",
    "torus.lattice_pairs": "count",
    "torus.neg_pairs": "count",
    "torus.useful_ratio": "ratio",
    "cli.ops": "count",
    "cli.failed_ops": "count",
    "cli.render_busy_s": "s",
    "cli.out_bytes": "B",
    "legendre.blocks_built": "count",
    "legendre.build_busy_s": "s",
    "legendre.p5_evals": "count",
    "legendre.axis_blocks": "count",
    "matrices.charpoly_calls": "count",
    "matrices.charpoly_busy_s": "s",
    "matrices.order_max": "count",
    "matrices.order_cube_sum": "count",
    "polynomials.sturm_calls": "count",
    "polynomials.sturm_busy_s": "s",
    "polynomials.mult_calls": "count",
    "polynomials.mult_busy_s": "s",
    "polynomials.coeff_bits_max": "bit",
    "bench.trace_overhead": "ratio",
}


def lattice_pairs(k: int) -> int:
    """Interior pairs m, n >= 1 with m^2 + n^2 < 9k^2, computed from k alone."""
    bound = 9 * k * k
    return sum(math.isqrt(bound - m * m - 1) for m in range(1, math.isqrt(bound - 1) + 1))


class Tracer:
    """Spans and counters of one traced pass; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- observers: what a hook reads from arguments and results -------------
    def _coeff_bits(self, p) -> None:
        bits = max((abs(c).bit_length() for c in p.coeffs), default=0)
        if bits > self.counts["polynomials.coeff_bits_max"]:
            self.counts["polynomials.coeff_bits_max"] = bits

    def _before(self, name: str, args: tuple) -> None:
        if name == "charpoly_exact":
            order = args[0].order
            self.counts["matrices.order_cube_sum"] += order ** 3
            if order > self.counts["matrices.order_max"]:
                self.counts["matrices.order_max"] = order
        elif name == "count_roots_with_multiplicity":
            self._coeff_bits(args[0])

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "scan_row":
            self.counts["scan.neg_pairs"] += result.f
        elif name == "index_nullity":
            self.counts["torus.neg_pairs"] += result.f
            self.counts["torus.lattice_pairs"] += lattice_pairs(result.k)
        elif name == "legendre_index_nullity":
            self.counts["legendre.axis_blocks"] += result.axis_m_scanned_to + result.axis_n_scanned_to
        elif name == "render":
            self.counts["cli.out_bytes"] += len(result.encode())

    # -- wrappers --------------------------------------------------------------
    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before, self._after

        def wrapper(*args, **kwargs):
            before(name, args)
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # keeps ids in start order
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent)
            after(name, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        agg, clock = self.leaves[name], time.perf_counter
        observe = self._coeff_bits if name == "count_roots" else None

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args[0])
            start = clock()
            result = fn(*args, **kwargs)
            agg[1] += clock() - start
            agg[0] += 1
            return result

        return wrapper

    def install(self) -> None:
        for module_name, name, kind in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                self.missing.append(f"{module_name}.{name}")
                continue
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, (self.span if kind == "span" else self.leaf)(name, original))
        renderers = importlib.import_module("bihindex.cli").RENDERERS
        for fmt, fn in list(renderers.items()):
            self._saved.append((renderers, fmt, fn))
            renderers[fmt] = self.span("render", fn)

    def uninstall(self) -> None:
        while self._saved:
            target, key, original = self._saved.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results ---------------------------------------------------------------
    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def metrics(self, ops: int, failed_ops: int) -> dict[str, float]:
        """Per-layer metrics of this pass, except bench.trace_overhead."""
        d = self.durations()
        c = self.counts
        lattice = c["torus.lattice_pairs"]
        return {
            "scan.rows": len(d["scan_row"]),
            "scan.row_busy_s": sum(d["scan_row"], 0.0),
            "scan.row_max_s": max(d["scan_row"], default=0.0),
            "scan.exact_evals": self.leaves["discriminant"][0],
            "scan.exact_busy_s": self.leaves["discriminant"][1],
            "scan.neg_pairs": c["scan.neg_pairs"],
            "torus.index_busy_s": sum(d["index_nullity"], 0.0),
            "torus.interior_scan_busy_s": sum(d["interior_sign_scan"], 0.0),
            "torus.lattice_pairs": lattice,
            "torus.neg_pairs": c["torus.neg_pairs"],
            "torus.useful_ratio": c["torus.neg_pairs"] / lattice if lattice else 0.0,
            "cli.ops": ops,
            "cli.failed_ops": failed_ops,
            "cli.render_busy_s": sum(d["render"], 0.0),
            "cli.out_bytes": c["cli.out_bytes"],
            "legendre.blocks_built": len(d["build_legendre_block"]),
            "legendre.build_busy_s": sum(d["build_legendre_block"], 0.0),
            "legendre.p5_evals": self.leaves["p5_coefficients"][0],
            "legendre.axis_blocks": c["legendre.axis_blocks"],
            "matrices.charpoly_calls": len(d["charpoly_exact"]),
            "matrices.charpoly_busy_s": sum(d["charpoly_exact"], 0.0),
            "matrices.order_max": c["matrices.order_max"],
            "matrices.order_cube_sum": c["matrices.order_cube_sum"],
            "polynomials.sturm_calls": self.leaves["count_roots"][0],
            "polynomials.sturm_busy_s": self.leaves["count_roots"][1],
            "polynomials.mult_calls": len(d["count_roots_with_multiplicity"]),
            "polynomials.mult_busy_s": sum(d["count_roots_with_multiplicity"], 0.0),
            "polynomials.coeff_bits_max": c["polynomials.coeff_bits_max"],
        }

    def dump(self, fh) -> None:
        """Write the spans, leaf aggregates and self times as one JSON object."""
        json.dump({
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "leaves": {name: {"calls": n, "busy_s": s} for name, (n, s) in self.leaves.items()},
            "self_s": self.self_times(),
            "missing_hooks": self.missing,
        }, fh)
