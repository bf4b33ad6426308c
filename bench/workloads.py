"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a deck of entries generated from the seed and run in a
fixed cyclic order.  Sizes are stratified: entry p gets a size from the
middle fifth of stratum ``bit_reversed(256)[p]`` of the (log) size range, so
every seed has nearly the same sizes and any prefix of a pass is spread over
the range as well.  Sign, regime and nonlinearity follow the stratum too.
The seed moves sizes only a little and sets everything else: corner values
within their regimes, rates, boundary values, query indices and the CLI's
arguments and subcommand order.  With free size draws, the median and tail of these
heterogeneous ops would move from seed to seed by more than the bounds.

Checks run outside the timed region and use only the benchmark's own
arithmetic (the tridiagonal stencil below) or the library's Gauss-Jordan
oracle, never the closed forms under test.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neartoeplitz import (
    BvpProblem,
    MatrixConfig,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    expected_rate,
    lower_bound,
    near_toeplitz_inverse_entry,
    reference_inverse,
    reference_norm,
    reference_rowsums,
    reference_trace,
    rowsums,
    solve_fixed_point,
    trace_inverse,
    upper_bound,
)

from tracing import plain_call

DECK = 256
EPS = np.finfo(float).eps
#: Relative slack for comparisons of the same quantity computed two ways.
REL = 1e-9
BVP_TOL = 1e-10
TABLE_IDS = ("fig2_table", "fig3_table", "table5", "table6")
SUBCOMMANDS = (
    "entry", "invert", "trace", "rowsum", "norm",
    "bounds", "signs", "singular", "solve-bvp", "reproduce",
)
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def bit_reversed(count: int) -> list[int]:
    """0..count-1 in bit-reversed order; count is a power of two."""
    bits = count.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(count)]


def sign_of(stratum: int) -> int:
    """+2 or -2 by the parity of the stratum's set bits (Thue-Morse), which
    alternates along the sizes and along the bit-reversed loop order, so
    sign never correlates with size."""
    return 2 if bin(stratum).count("1") % 2 == 0 else -2


def log_stratum(rng: random.Random, stratum: int, strata: int, lo: float, hi: float) -> float:
    """A log-scale draw from the middle fifth of stratum ``stratum`` of
    ``strata`` on [lo, hi]."""
    t = (stratum + 0.4 + 0.2 * rng.random()) / strata
    return math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo)))


def corner(rng: random.Random, n: int, b: int, regime: int) -> float:
    """A corner value in one of the five upper-bound regimes of sign(b).

    For b = +2 the regimes are b_tilde > 1, [(n-2)/(n-1), 1),
    ((n-3)/(n-1), (n-2)/(n-1)), (0, (n-3)/(n-1)) and b_tilde <= 0; b = -2
    mirrors them.  Draws stay at least 0.2/(n-1) from the singular points
    1 and (n-3)/(n-1).
    """
    w = 1.0 / (n - 1)
    if regime == 0:
        value = 1.0 + 10.0 ** rng.uniform(-2.0, 1.0)
    elif regime == 1:
        value = (n - 2) * w + rng.uniform(0.0, 0.8) * w
    elif regime == 2:
        value = (n - 3) * w + rng.uniform(0.2, 0.9) * w
    elif regime == 3:
        value = rng.uniform(0.05, 0.95) * (n - 3) * w
    else:
        value = -rng.uniform(0.0, 8.0)
    return value if b == 2 else -value


def stencil(b: int, bt: float, x: np.ndarray) -> np.ndarray:
    """The tridiagonal operator (b on the diagonal, -1 off it, bt at both
    corners) applied to x."""
    y = b * x
    y[0] = bt * x[0]
    y[-1] = bt * x[-1]
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    return y


def stencil_norm(b: int, bt: float) -> float:
    return max(abs(b), abs(bt)) + 2.0


def bvp_residual_ok(b, bt, length, kind, k, bcs, u, rel) -> str | None:
    """Check ||A u - h^2 f(u) - bc||_inf of a converged fixed point.

    A converged iterate leaves a residual of at most h^2 * L * tol, L the
    Lipschitz constant of f near u; ``rel`` scales the rounding allowance.
    """
    n = u.size
    h2 = (length / n) ** 2
    top = float(np.abs(u).max()) + BVP_TOL
    if kind == "fisher":
        f, lip = k * u * (1.0 - u), abs(k) * (1.0 + 2.0 * top)
    else:
        f, lip = k * np.exp(u), abs(k) * math.exp(top)
    rhs_bc = np.zeros(n)
    rhs_bc[0], rhs_bc[-1] = bcs
    r = float(np.abs(stencil(b, bt, u) - h2 * f - rhs_bc).max())
    scale = stencil_norm(b, bt) * float(np.abs(u).max()) + max(abs(bcs[0]), abs(bcs[1]))
    limit = 2.0 * h2 * lip * BVP_TOL + rel * scale
    return None if r <= limit else f"bvp residual {r:.3e} > {limit:.3e}"


def calibrated_k(n, b, bt, kind, length, bcs, rate) -> float:
    """The nonlinearity strength whose predicted contraction rate is ``rate``.

    The predicted rate is linear in k, so one call at k = 1 fixes it.
    """
    cfg = MatrixConfig(n, b, bt)
    prob = BvpProblem(n=n, length=length, k_coef=1.0, nonlinearity=kind, cfg=cfg,
                      bc_left=bcs[0], bc_right=bcs[1])
    return rate / expected_rate(prob)


def _norm_check(lo, ub, norm) -> str | None:
    if not lo <= norm * (1.0 + REL):
        return f"lower bound {lo!r} > norm {norm!r}"
    if not ub >= norm * (1.0 - REL):
        return f"upper bound {ub!r} < norm {norm!r}"
    return None


def _close(got, want, what: str, scale: float = 0.0) -> str | None:
    """Error at most REL times the largest of |want|, ``scale`` and 1."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = float(np.abs(got - want).max())
    limit = REL * max(float(np.abs(want).max()), scale, 1.0)
    return None if err <= limit else f"{what}: error {err:.3e} > {limit:.3e}"


@dataclass
class Entry:
    """One deck entry; ``params`` holds the workload's inputs for it."""

    index: int
    n: int
    params: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: Entries run once, untimed, at the end of set-up.
    WARM_UP = 2

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.deck: list[Entry] = []

    def warm_up(self) -> None:
        """Run the first entries once, untimed, and check them."""
        for entry in self.deck[: self.WARM_UP]:
            failure = self.check(entry, self.op(entry, None))
            if failure:
                raise RuntimeError(f"warm-up op failed: {failure}")

    def short_pass(self) -> list[Entry]:
        """The entries a traced run of another workload runs once each."""
        return self.deck[:16]

    def info(self, entry: Entry, out) -> dict:
        """What a traced op records next to its span, besides entry and n."""
        return {}

    def final_failures(self, ran: set[int]) -> dict[int, str]:
        """Checks run once after timing, keyed by entry index."""
        return {}


class NormSweep(Workload):
    """Bounds, exact norm, row sums and trace of one config (what the CLI's
    'bounds' and 'rowsum' do), n spread log-uniformly over [200, 3000]."""

    name = "norm_sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        for p, stratum in enumerate(bit_reversed(DECK)):
            n = round(log_stratum(self.rng, stratum, DECK, 200, 3000))
            b, regime = sign_of(stratum), stratum % 5
            params = {"b": b, "bt": corner(self.rng, n, b, regime)}
            if p % 16 == 0:
                # Seeded subset re-checked against the oracle at a small n.
                ns = self.rng.randint(12, 150)
                params["shadow"] = (ns, b, corner(self.rng, ns, b, regime))
            self.deck.append(Entry(p, n, params))

    def op(self, e: Entry, tracer):
        call = tracer.call if tracer else plain_call
        cfg = call(MatrixConfig, e.n, e.params["b"], e.params["bt"])
        return (
            call(lower_bound, cfg),
            call(upper_bound, cfg),
            call(exact_infinity_norm, cfg),
            call(rowsums, cfg),
            call(trace_inverse, cfg),
        )

    def info(self, e: Entry, out) -> dict:
        return {"branch": out[1].branch}

    def check(self, e: Entry, out) -> str | None:
        lo, ub, norm, rs, _ = out
        failure = _norm_check(lo, ub.value, norm)
        if failure:
            return failure
        b, bt = e.params["b"], e.params["bt"]
        # A^{-1} 1 are the row sums, so A applied to them gives back ones.
        r = float(np.abs(stencil(b, bt, np.array(rs, dtype=float)) - 1.0).max())
        limit = 1e-12 * stencil_norm(b, bt) * float(np.abs(rs).max()) + 1e-12
        return None if r <= limit else f"A*rowsums - 1 = {r:.3e} > {limit:.3e}"

    def final_failures(self, ran: set[int]) -> dict[int, str]:
        failures = {}
        for e in self.deck:
            if e.index not in ran or "shadow" not in e.params:
                continue
            cfg = MatrixConfig(*e.params["shadow"])
            dense = build_matrix(cfg)
            norm = exact_infinity_norm(cfg)
            failure = (
                _close(norm, reference_norm(dense), f"norm at {cfg}")
                or _close(trace_inverse(cfg), reference_trace(dense), f"trace at {cfg}")
                or _close(rowsums(cfg), reference_rowsums(dense), f"row sums at {cfg}")
                or _norm_check(lower_bound(cfg), upper_bound(cfg).value, norm)
            )
            if failure:
                failures[e.index] = failure
        return failures


class Bvp(Workload):
    """One fixed-point solve at tol 1e-10.

    3/8 of the entries use the tables' n = 50 grid and 5/8 have n log-uniform
    in [1e3, 1e5].  Not a half-and-half split: the median op would then sit
    on the gap between the two groups and jump from run to run.
    """

    name = "bvp"
    SMALL = DECK * 3 // 8

    def __init__(self, seed: int):
        super().__init__(seed)
        for p, stratum in enumerate(bit_reversed(DECK)):
            b = sign_of(stratum)
            kind = "fisher" if stratum % 4 < 2 else "bratu"
            # Predicted rates spread over [0.1, 0.45], paired with sizes by a
            # fixed permutation so that every seed gets the same mix.
            rate = 0.1 + 0.35 * ((27 * p) % DECK + self.rng.random()) / DECK
            if stratum < self.SMALL:
                n, bt, length = 50, float(b), (0.5 if b == 2 else 0.05)
            else:
                n = round(log_stratum(self.rng, stratum - self.SMALL, DECK - self.SMALL, 1e3, 1e5))
                bt, length = b * self.rng.uniform(1.5, 3.0), 1.0
            if kind == "fisher" and b == -2:
                bcs = (0.0, 0.0)  # as in table 6; nonzero values make u oscillate past [0, 1]
            else:
                bcs = (self.rng.uniform(0.05, 0.5), self.rng.uniform(0.05, 0.5))
            k = calibrated_k(n, b, bt, kind, length, bcs, rate)
            self.deck.append(Entry(p, n, {"b": b, "bt": bt, "kind": kind, "length": length,
                                          "bcs": bcs, "k": k}))

    def op(self, e: Entry, tracer):
        call = tracer.call if tracer else plain_call
        q = e.params
        cfg = call(MatrixConfig, e.n, q["b"], q["bt"])
        prob = call(BvpProblem, n=e.n, length=q["length"], k_coef=q["k"], nonlinearity=q["kind"],
                    cfg=cfg, bc_left=q["bcs"][0], bc_right=q["bcs"][1])
        call(expected_rate, prob)
        return call(solve_fixed_point, prob, tol=BVP_TOL)

    def info(self, e: Entry, out) -> dict:
        return {"iterations": out.iterations, "converged": bool(out.converged)}

    def check(self, e: Entry, out) -> str | None:
        if not out.converged:
            return f"not converged after {out.iterations} iterations"
        q = e.params
        return bvp_residual_ok(q["b"], q["bt"], q["length"], q["kind"], q["k"], q["bcs"],
                               out.solution, 64 * EPS)


class DenseInverse(Workload):
    """Full closed-form inverse plus 200 point entries, n spread log-uniformly
    over [50, 2000]; for n <= 150 the dense oracle runs inside the op."""

    name = "dense_inverse"
    QUERIES = 200
    ORACLE_MAX_N = 150

    def __init__(self, seed: int):
        super().__init__(seed)
        for p, stratum in enumerate(bit_reversed(DECK)):
            n = round(log_stratum(self.rng, stratum, DECK, 50, 2000))
            b = sign_of(stratum)
            ij = [(self.rng.randint(1, n), self.rng.randint(1, n)) for _ in range(self.QUERIES)]
            self.deck.append(Entry(p, n, {"b": b, "bt": corner(self.rng, n, b, stratum % 5),
                                          "ij": ij}))

    def op(self, e: Entry, tracer):
        call = tracer.call if tracer else plain_call
        cfg = call(MatrixConfig, e.n, e.params["b"], e.params["bt"])
        inv = call(assemble_inverse, cfg)
        values = [call(near_toeplitz_inverse_entry, cfg, i, j) for i, j in e.params["ij"]]
        ref = None
        if e.n <= self.ORACLE_MAX_N:
            ref = call(reference_inverse, call(build_matrix, cfg))
        return inv, values, ref

    def check(self, e: Entry, out) -> str | None:
        inv, values, ref = out
        entries = inv.entries
        if entries.shape != (e.n, e.n) or not np.array_equal(entries, entries.T):
            return "assembled inverse is not a symmetric n x n array"
        i, j = (np.array(v) - 1 for v in zip(*e.params["ij"]))
        want = entries[i, j]
        err = np.abs(np.array(values) - want)
        if not (err <= 8 * EPS * np.abs(want)).all():
            return f"point entries differ from the assembled inverse by {err.max():.3e}"
        return None if ref is None else _close(entries, ref.entries, "assembled vs oracle")


class Cli(Workload):
    """Sequential ``python -m neartoeplitz`` calls: the ten subcommands in
    equal shares at n <= 60, 'reproduce' rotating through the four tables."""

    name = "cli"
    WARM_UP = 1

    def __init__(self, seed: int, python: str, env: dict, cwd: Path):
        super().__init__(seed)
        self.python, self.env, self.cwd = python, env, cwd
        self._oracle: dict[int, np.ndarray] = {}
        # One 'reproduce' per block of ten; the table order is seeded because
        # a run may end before it reaches the fourth block.
        table_ids = list(TABLE_IDS)
        self.rng.shuffle(table_ids)
        for table_id in table_ids:
            subs = list(SUBCOMMANDS)
            self.rng.shuffle(subs)
            for sub in subs:
                self.deck.append(self._entry(len(self.deck), sub, table_id))

    def _entry(self, index: int, sub: str, table_id: str) -> Entry:
        rng = self.rng
        if sub == "reproduce":
            return Entry(index, 0, {"sub": sub, "args": [sub, table_id]})
        n = rng.randint(20, 60) if sub == "solve-bvp" else rng.randint(8, 60)
        b = 2 if sub == "signs" else rng.choice((2, -2))
        if sub == "signs":
            bt = -rng.uniform(0.05, 6.0)
        elif sub == "solve-bvp":
            bt = b * rng.uniform(1.5, 3.0)
        else:
            bt = corner(rng, n, b, rng.randrange(5))
        q = {"sub": sub, "b": b, "bt": bt,
             "args": [sub, "--n", str(n), "--b", str(b), "--btilde", repr(bt)]}
        if sub == "entry":
            q["ij"] = (rng.randint(1, n), rng.randint(1, n))
            q["args"] += ["--i", str(q["ij"][0]), "--j", str(q["ij"][1])]
        elif sub == "rowsum" and rng.random() < 0.5:
            q["i"] = rng.randint(1, n)
            q["args"] += ["--i", str(q["i"])]
        elif sub == "solve-bvp":
            kind = rng.choice(("fisher", "bratu"))
            bcs = (0.0, 0.0) if (kind, b) == ("fisher", -2) else (
                rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5))
            k = calibrated_k(n, b, bt, kind, 1.0, bcs, rng.uniform(0.1, 0.45))
            q.update(kind=kind, bcs=bcs, k=k)
            q["args"] += ["--length", "1.0", "--k", repr(k), "--nonlinearity", kind,
                          "--bc-left", repr(bcs[0]), "--bc-right", repr(bcs[1])]
        return Entry(index, n, q)

    def short_pass(self) -> list[Entry]:
        """Every subcommand once, and 'reproduce' once per table."""
        first = self.deck[: len(SUBCOMMANDS)]
        return first + [e for e in self.deck[len(SUBCOMMANDS):] if e.params["sub"] == "reproduce"]

    def op(self, e: Entry, tracer):
        args = e.params["args"]
        if tracer is None:
            cmd = [self.python, "-m", "neartoeplitz", *args]
        else:
            cmd = [self.python, str(CLI_CHILD), *args]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.cwd, timeout=60)
        if tracer is not None:
            for line in proc.stderr.decode().splitlines():
                if line.startswith("BENCH_SPANS "):
                    for name, start, end, info in json.loads(line[len("BENCH_SPANS "):]):
                        tracer.add(name, start, end, info)
        return proc

    def info(self, e: Entry, out) -> dict:
        return {"stdout_bytes": len(out.stdout)}

    def _ref(self, e: Entry) -> np.ndarray:
        if e.index not in self._oracle:
            cfg = MatrixConfig(e.n, e.params["b"], e.params["bt"])
            self._oracle[e.index] = reference_inverse(build_matrix(cfg)).entries
        return self._oracle[e.index]

    def check(self, e: Entry, out) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.decode()[-300:]}"
        q = e.params
        sub = q["sub"]
        text = out.stdout.decode()
        if sub == "reproduce":
            return self._check_table(q["args"][1], text)
        rec = json.loads(text)
        o = rec["outputs"]
        if sub == "solve-bvp":
            if o["converged"] is not True:
                return "solve-bvp did not converge"
            return bvp_residual_ok(q["b"], q["bt"], 1.0, q["kind"], q["k"], q["bcs"],
                                   np.array(o["solution"], dtype=float), 1e-9)
        if sub == "singular":
            # det(A) = (b/2)^n (n+1) delta, with det from LU.
            det = np.linalg.det(build_matrix(MatrixConfig(e.n, q["b"], q["bt"])).data)
            delta = det / ((q["b"] // 2) ** e.n * (e.n + 1))
            if o["singular"] or o["delta_test"]:
                return "nonsingular config reported singular"
            return _close(o["delta"], delta, "delta")
        ref = self._ref(e)
        # The oracle's error scales with its largest entry and row sum.
        top = float(np.abs(ref).max())
        norm = float(np.abs(ref).sum(axis=1).max())
        if sub == "entry":
            i, j = q["ij"]
            return _close(o["value"], ref[i - 1, j - 1], "entry", top)
        if sub == "invert":
            return _close(o["entries"], ref, "inverse")
        if sub == "trace":
            return _close(o["trace"], np.trace(ref), "trace", e.n * top)
        if sub == "rowsum":
            if "i" in q:
                return _close(o["rowsum"], ref[q["i"] - 1].sum(), "row sum", norm)
            return _close(o["values"], ref.sum(axis=1), "row sums", norm)
        if sub == "norm":
            return _close(o["norm"], norm, "norm")
        if sub == "bounds":
            return _close(o["exact_norm"], norm, "norm") or _norm_check(
                o["lower"], o["upper"], o["exact_norm"])
        # signs: the oracle's signs, with exact zeros where it is at rounding level.
        tiny = 1e-12 * top
        want = np.where(np.abs(ref) <= tiny, 0, np.sign(ref))
        return None if np.array_equal(np.array(o["pattern"]), want) else "sign pattern differs"

    def _check_table(self, table_id: str, text: str) -> str | None:
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != 7:
            return f"{table_id}: {len(rows)} rows"
        for row in rows:
            # Rows with pass=False are published cells that differ by design.
            if row["pass"] not in ("True", "False"):
                return f"{table_id}: bad pass flag {row['pass']!r}"
            if table_id in ("fig2_table", "fig3_table"):
                b = 2 if table_id == "fig2_table" else -2
                cfg = MatrixConfig(int(row["n"]), b, float(row["btilde"]))
                norm = float(row["norm"])
                failure = _close(norm, reference_norm(build_matrix(cfg)), f"norm at {cfg}")
                if failure or float(row["upper_bound"]) < norm * (1 - REL):
                    return failure or f"{table_id}: bound below norm at {cfg}"
            elif row["converged"] != "True" or int(row["iterations"]) < 1:
                return f"{table_id}: k={row['k']} did not converge"
        return None


def make(name: str, seed: int, python: str, env: dict, cwd: Path) -> Workload:
    if name == "cli":
        return Cli(seed, python, env, cwd)
    return {"norm_sweep": NormSweep, "bvp": Bvp, "dense_inverse": DenseInverse}[name](seed)
