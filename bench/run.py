"""Benchmark of neartoeplitz, driven from outside the library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli,norm_sweep,bvp,dense_inverse} \\
        --seed N --seconds S --trace {0,1}

Load is a closed loop with one client in one process: the next op starts when
the previous one has ended.  For 'cli' each op is one
``python -m neartoeplitz`` subprocess.  No threads are used.  BLAS and OpenMP
are pinned to one thread here and in every child process.  Inputs come from
``--seed`` only (see workloads.py); every op's output is checked outside the
timed region.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several set-ups, one here and the rest in fresh processes), median and tail op
time, ops per second of op time, and peak RSS (for 'cli', of the largest
child).  ``--trace 1`` reports the per-layer metrics: spans around every call
into the library (tracing.py) and the layer probes (probes.py).  In a traced
run each op runs twice, traced and untraced, for the tracing overhead.  After
the loop, every workload (this one too) gets a short traced pass that covers
all of its kinds of op, so that every layer is measured in every traced run.

The last stdout line is the result object; the line before it gives the tail
percentile and sample count, the failed ratio and the environment.  The full
report, with every span when traced, is written to .bench_out/.  Without
src/neartoeplitz in the checkout, the benchmark exits with code 2 and no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, layer_metrics, p50_ms, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
WORKLOADS = ("cli", "norm_sweep", "bvp", "dense_inverse")
SETUP_SAMPLES = 5
#: A run keeps going past --seconds until it has this many ops (enough for a
#: tail with 10 samples above it), but never longer than HARD_EXTRA_S.
MIN_OPS = 20
HARD_EXTRA_S = 60.0


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads_pinned": PINNED}


class Run:
    """Op times, spans and failures of one benchmark run."""

    def __init__(self, traced: bool, seed: int):
        self.tracer = Tracer() if traced else None
        # Picks which of a traced pair runs first.  The second run of an
        # entry finds warm memory, so the order must not follow op size.
        self.coin = random.Random(seed)
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.ops_of_entry = defaultdict(list)
        self.failed: dict[int, str] = {}
        self.next_id = 0

    def op(self, wl, entry, traced: bool) -> float:
        """Run, time and check one op; an op that raises counts as failed."""
        op_id = self.next_id
        self.next_id += 1
        tracer = self.tracer if traced else None
        if tracer:
            tracer.begin_op(op_id)
        info = {"entry": entry.index, "n": entry.n}
        start = time.perf_counter()
        try:
            out = wl.op(entry, tracer)
            end = time.perf_counter()
            failure = wl.check(entry, out)
            info.update(wl.info(entry, out))
        except Exception as exc:  # the loop must go on; the failure is reported
            end = time.perf_counter()
            failure = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_op(wl.name, start, end, info)
        self.ops_of_entry[(wl.name, entry.index)].append(op_id)
        if failure:
            self.failed[op_id] = f"{wl.name} entry {entry.index}: {failure}"
        return end - start

    def loop(self, wl, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        deadline, hard = start + seconds, start + seconds + HARD_EXTRA_S
        i = 0
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= deadline and len(self.times) >= MIN_OPS):
                return
            entry = wl.deck[i % len(wl.deck)]
            if traced:
                # Same entry untraced and traced, in random order.
                first = self.coin.random() < 0.5
                for traced_now in (first, not first):
                    dt = self.op(wl, entry, traced_now)
                    (self.traced_times if traced_now else self.times).append(dt)
            else:
                self.times.append(self.op(wl, entry, False))
            i += 1

    def final_checks(self, wl) -> None:
        ran = {index for name, index in self.ops_of_entry if name == wl.name}
        for index, failure in wl.final_failures(ran).items():
            for op_id in self.ops_of_entry[(wl.name, index)]:
                self.failed.setdefault(op_id, f"{wl.name} entry {index}: {failure}")


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes running --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              check=True, timeout=120)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not (SRC / "neartoeplitz" / "__init__.py").is_file():
        print(f"error: no neartoeplitz sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(PINNED)
    sys.path.insert(1, str(SRC))
    start = time.perf_counter()
    import workloads  # numpy and neartoeplitz are imported here, inside set-up

    wl = workloads.make(args.workload, args.seed, sys.executable, child_env(), ROOT)
    wl.warm_up()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import neartoeplitz

    if not Path(neartoeplitz.__file__).resolve().is_relative_to(SRC):
        print(f"error: neartoeplitz imported from {neartoeplitz.__file__}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    run = Run(traced, args.seed)
    run.loop(wl, args.seconds, traced)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    run.final_checks(wl)

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops": len(run.times)}
    if traced:
        for name in WORKLOADS:
            other = wl if name == args.workload else workloads.make(
                name, args.seed, sys.executable, child_env(), ROOT)
            for entry in other.short_pass():
                run.op(other, entry, True)
            if other is not wl:
                run.final_checks(other)
        import probes

        metrics = layer_metrics(run.tracer.spans)
        metrics.update(probes.import_probe(sys.executable, child_env(), ROOT))
        metrics.update(probes.baseline_rows())
        metrics["bench.tracing_overhead_ratio"] = p50_ms(run.traced_times) / p50_ms(run.times)
        kind = "per_layer"
    else:
        setups = [setup_s, *setup_samples(args, SETUP_SAMPLES - 1)]
        value, percentile, above = tail(run.times)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": p50_ms(run.times),
            "op_tail_ms": value * 1e3,
            "ops_per_s": len(run.times) / sum(run.times),
            "peak_rss_mb": peak_rss_mb,
        }
        summary.update(op_tail={"percentile": percentile, "samples": len(run.times),
                                "samples_above": above}, setup_samples_s=setups)
        kind = "end_to_end"

    attempted, failed = run.next_id, len(run.failed)
    summary.update(failed_ratio=failed / attempted, failures=sorted(run.failed.values())[:10],
                   env=environment())
    units = declared_metrics(kind)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"summary": summary, "result": result,
                                  "spans": run.tracer.dump() if traced else None}))
    summary["report"] = str(report.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
