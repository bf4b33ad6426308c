"""In-memory spans around the benchmark's calls into neartoeplitz, and the
per-layer metrics derived from them.

A span is the tuple ``(op_id, name, start, end, peak_bytes, info)``.  Each
timed op has one span named ``op.<workload>``; every other span with the same
``op_id`` is a call made inside that op, so the op span is its parent.  Times
come from ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so
spans reported by a child process line up with the parent's.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

#: Calls whose peak traced memory is recorded.  tracemalloc runs only around
#: these calls, so it costs nothing elsewhere.
MEMORY_TRACED = frozenset({"analysis.exact_infinity_norm", "core.assemble_inverse"})

#: Layers whose busy time, and of those whose call count, is reported.
BUSY = (
    "config.MatrixConfig", "analysis.exact_infinity_norm", "analysis.upper_bound",
    "analysis.lower_bound", "analysis.rowsums", "analysis.trace_inverse",
    "core.assemble_inverse", "core.near_toeplitz_inverse_entry", "oracle.build_matrix",
    "oracle.reference_inverse", "bvp.solve_fixed_point", "bvp.expected_rate", "cli.main",
)
COUNTED = (
    "config.MatrixConfig", "analysis.exact_infinity_norm", "core.assemble_inverse",
    "core.near_toeplitz_inverse_entry", "oracle.reference_inverse", "bvp.solve_fixed_point",
    "cli.main",
)

_NAMES: dict = {}


def layer_name(fn) -> str:
    """'<module>.<qualname>' of a library callable, e.g. 'analysis.upper_bound'."""
    name = _NAMES.get(fn)
    if name is None:
        name = _NAMES[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    return name


def plain_call(fn, *args, **kwargs):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """Collects spans for traced ops; see the module docstring for their shape."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._op_id = None

    def begin_op(self, op_id) -> None:
        self._op_id = op_id

    def end_op(self, workload: str, start: float, end: float, info: dict) -> None:
        self.spans.append((self._op_id, f"op.{workload}", start, end, 0, info))
        self._op_id = None

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` and record a span named after it under the open op."""
        name = layer_name(fn)
        memory = name in MEMORY_TRACED
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            peak = 0
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append((self._op_id, name, start, end, peak, None))

    def add(self, name: str, start: float, end: float, info: dict | None = None) -> None:
        """Record a span measured elsewhere (a child process) under the open op."""
        self.spans.append((self._op_id, name, start, end, 0, info))

    def dump(self) -> list[dict]:
        """Spans with an explicit parent index, for writing out."""
        op_index = {s[0]: i for i, s in enumerate(self.spans) if s[1].startswith("op.")}
        out = []
        for op_id, name, start, end, peak, info in self.spans:
            parent = None if name.startswith("op.") else op_index.get(op_id)
            out.append({"name": name, "start": start, "end": end, "parent": parent,
                        "op": op_id, "peak_bytes": peak, "info": info})
        return out


def p50_ms(values) -> float:
    return statistics.median(values) * 1e3


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples above it) at the highest percentile that
    still has at least 10 samples above it; the maximum when there are fewer
    than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _self_time(op_span, children) -> float:
    """Op duration minus the part of it that its child spans cover."""
    start, end = op_span[2], op_span[3]
    covered = 0.0
    cursor = start
    for s, e in sorted((max(c[2], start), min(c[3], end)) for c in children):
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return (end - start) - covered


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics (name -> value) derived from the spans of a traced run."""
    durations = defaultdict(list)
    peaks = defaultdict(int)
    ops, children = {}, defaultdict(list)
    for span in spans:
        op_id, name, start, end, peak, info = span
        if name.startswith("op."):
            ops[op_id] = span
            continue
        children[op_id].append(span)
        if name == "cli.main":
            durations[f"cli.main.{info['subcommand']}"].append(end - start)
        elif name == "tables.reproduce":
            durations[f"tables.reproduce.{info['table']}"].append(end - start)
        durations[name].append(end - start)
        peaks[name] = max(peaks[name], peak)

    m: dict[str, float] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = sum(durations[name])
    for name in COUNTED:
        m[f"{name}.calls"] = len(durations[name])
    for name in ("analysis.exact_infinity_norm", "core.assemble_inverse"):
        m[f"{name}.p50_ms"] = p50_ms(durations[name])
        m[f"{name}.peak_traced_bytes"] = peaks[name]
    for key, values in durations.items():
        if key.startswith(("cli.main.", "tables.reproduce.")):
            m[f"{key}.p50_ms"] = p50_ms(values)

    # Counts from the ops' own records.  Byte and flop counts are computed
    # from the sizes, not measured.
    norm_bytes = flops = stdout_bytes = 0
    iterations_by_entry, iterations, converged, solves = {}, 0, 0, 0
    branches = set()
    for op_id, (_, name, _, _, _, info) in ops.items():
        calls = {c[1] for c in children[op_id]}
        n = info.get("n")
        if "analysis.exact_infinity_norm" in calls:
            norm_bytes += 8 * n * n
        if "oracle.reference_inverse" in calls:
            flops += 4 * n**3 - 2 * n**2
        if "branch" in info:
            branches.add(info["branch"])
        if "iterations" in info:
            iterations_by_entry[info["entry"]] = info["iterations"]
            iterations += info["iterations"]
            converged += info["converged"]
            solves += 1
        stdout_bytes += info.get("stdout_bytes", 0)
    m["analysis.exact_infinity_norm.computed_bytes"] = norm_bytes
    m["oracle.reference_inverse.computed_flops"] = flops
    m["analysis.upper_bound.branches_hit"] = len(branches)
    m["cli.main.stdout_bytes"] = stdout_bytes
    m["bvp.iterations"] = sum(iterations_by_entry.values())
    m["bvp.iteration_us"] = 1e6 * m["bvp.solve_fixed_point.busy_s"] / iterations
    m["bvp.converged_ratio"] = converged / solves
    m["bench.op.self_s"] = sum(_self_time(ops[i], children[i]) for i in ops)
    return m
