"""Layer probes run in every traced run.

``import_probe`` starts fresh interpreters: ``python -c pass`` for the
interpreter baseline, and ``python -X importtime -c 'import neartoeplitz'``
whose cumulative totals give the import cost of numpy, scipy.linalg and the
package itself as the package pulls them in (0 for a module it no longer
imports).

``baseline_rows`` times the layers at the fixed sizes of the ROADMAP's
baseline table, so that later changes can cite before and after rows.  The
n = 4000 norm peaks at about 512 MB.
"""

from __future__ import annotations

import statistics
import subprocess
import time

from neartoeplitz import (
    BvpProblem,
    MatrixConfig,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    reference_inverse,
    solve_fixed_point,
)

IMPORT_REPS = 3
IMPORTED = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
            "neartoeplitz": "import.neartoeplitz_s"}


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out[module.strip()] = int(cumulative) * 1e-6
    return out


def import_probe(python: str, env: dict, cwd) -> dict[str, float]:
    runs = {name: [] for name in ("import.interpreter_s", *IMPORTED.values())}
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
        runs["import.interpreter_s"].append(time.perf_counter() - start)
        proc = subprocess.run([python, "-X", "importtime", "-c", "import neartoeplitz"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True,
                              timeout=60)
        totals = _importtime(proc.stderr)
        for module, metric in IMPORTED.items():
            runs[metric].append(totals.get(module, 0.0))
    return {name: statistics.median(values) for name, values in runs.items()}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _bvp_iteration_us(n: int) -> float:
    """Seconds per fixed-point step, from the difference between 21 and 1
    steps, so the per-solve set-up cancels.  The problem contracts at about
    0.4 and tol is tiny, so every step runs."""
    cfg = MatrixConfig(n, 2, 2.0)
    prob = BvpProblem(n=n, length=1.0, k_coef=3.0, nonlinearity="fisher", cfg=cfg)
    tol = 1e-300

    def steps(count):
        return _median_time(lambda: solve_fixed_point(prob, tol=tol, max_iter=count), 5)

    return 1e6 * (steps(21) - steps(1)) / 20


def baseline_rows() -> dict[str, float]:
    rows = {}
    for n, reps in ((100, 21), (1000, 5), (4000, 3)):
        cfg = MatrixConfig(n, 2, -1.0)
        rows[f"baseline.analysis.exact_infinity_norm.n{n}_ms"] = 1e3 * _median_time(
            lambda: exact_infinity_norm(cfg), reps)
    cfg = MatrixConfig(4000, 2, -1.0)
    rows["baseline.core.assemble_inverse.n4000_ms"] = 1e3 * _median_time(
        lambda: assemble_inverse(cfg), 3)
    for n, reps in ((30, 21), (300, 3)):
        dense = build_matrix(MatrixConfig(n, 2, -1.0))
        rows[f"baseline.oracle.reference_inverse.n{n}_ms"] = 1e3 * _median_time(
            lambda: reference_inverse(dense), reps)
    for n in (50, 1000, 100000):
        rows[f"baseline.bvp.iteration.n{n}_us"] = _bvp_iteration_us(n)
    return rows
