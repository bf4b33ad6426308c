"""Command-line front end.

Each subcommand wraps one library call, except ``bounds`` (both bounds next to the exact norm),
``invert`` (the O(1) entry function at every index) and ``rowsum`` without ``--i`` (the O(1) row
sum for every row next to ``rowsum_bounds``); only ``solve-bvp`` and ``reproduce table5`` /
``table6`` load numpy.  Each emits a deterministic report: JSON by default, CSV with ``--format
csv`` (``reproduce``: CSV only); computed floats are printed with 10 significant digits, echoed
inputs as parsed.  Exit codes: 0 success, 2 usage or invalid argument (also an unwritable
``--out``, a non-finite result, a refused allocation or a report of more than ``_MAX_PRINTED``
numbers, refused before the work), 3 singular configuration, 4 diverging iteration.  The
triple is checked first, when the config is built: its range (2), then its singularity (3);
``--chat``, the indices, the BVP options and the sign-pattern regime only after it.  Every
failure writes one JSON error object to stderr and nothing to stdout, except argparse's own
usage errors (an unknown, missing or malformed option), which exit 2 with its usage text.
Every option changes the result: only ``entry``, ``invert`` and ``solve-bvp`` take ``--chat``,
and report for -c_hat times the matrix; ``singular`` answers at the library's one tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import (
    exact_infinity_norm, lower_bound, rowsum, rowsum_bounds, sign_pattern, trace_inverse, upper_bound,
)
from .config import TABLE_IDS, MatrixConfig, _c_hat, singularity_report
from .core import CLOSED_FORM, near_toeplitz_inverse_entry
from .errors import DenseSizeError, DivergenceError, SingularMatrixError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_DIVERGED = 4

#: The most numbers one report prints: rendering holds about 90 B per printed int and 200 B
#: per printed float, so a report at the cap peaks near 200 MB.
_MAX_PRINTED = 2**20


def _require_printable(count: int) -> None:
    """Refuse a report of more than ``_MAX_PRINTED`` numbers with DenseSizeError."""
    if count > _MAX_PRINTED:
        raise DenseSizeError(f"the report would print {count} numbers, above 2**20, the cap")


def _finite(value: float) -> float:
    """``value``, unless it is non-finite: that has no JSON form, so it raises ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value} cannot be reported")
    return value


def _round10(obj):
    """Normalise a result of Python values for output: floats rounded to 10 significant
    digits and refused when non-finite (``_finite``), tuples as lists."""
    if isinstance(obj, float):
        return float(f"{_finite(obj):.10g}")
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    return obj


def _fmt(value) -> str:
    """A CSV cell: a float in 10 significant digits when they give it back, else its repr."""
    if isinstance(value, float):
        short = f"{value:.10g}"
        return short if float(short) == value else repr(value)
    return str(value)


def _csv_rows(field: str, value):
    """``field,value`` lines of a normalised value: a dict as ``field.key`` lines, a matrix
    as one line per row, any other list as one line."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _csv_rows(f"{field}.{key}" if field else key, sub)
    elif isinstance(value, list) and value and isinstance(value[0], list):
        for row in value:
            yield from _csv_rows(field, row)
    else:
        yield f"{field}," + ",".join(map(_fmt, value if isinstance(value, list) else [value]))


def _report(args, outputs: dict, branch: str | None = None) -> str:
    """The subcommand's record, rendered in ``--format``.  ``inputs`` echoes every parsed
    option except ``--format`` and ``--out``, in the parser's order and unrounded, so that
    it names the configuration that was computed; only ``outputs`` is rounded."""
    inputs = {k: _finite(v) if isinstance(v, float) else v for k, v in vars(args).items()
              if k not in ("command", "func", "format", "out")}
    rec = {"command": args.command, "inputs": inputs, "outputs": _round10(outputs)}
    if branch is not None:
        rec["branch"] = branch
    if args.format == "csv":
        return "\n".join(["field,value", *_csv_rows("", rec)]) + "\n"
    return json.dumps(rec, indent=2) + "\n"


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _cfg(args) -> MatrixConfig:
    return MatrixConfig(n=args.n, b=args.b, b_tilde=args.btilde)


def cmd_entry(args) -> str:
    cfg, c_hat = _cfg(args), _c_hat(args.chat)
    return _report(args, {"value": near_toeplitz_inverse_entry(cfg, args.i, args.j) / -c_hat})


def cmd_invert(args) -> str:
    cfg, c_hat = _cfg(args), _c_hat(args.chat)
    _require_printable(cfg.n**2)
    span = range(1, cfg.n + 1)
    entries = [[near_toeplitz_inverse_entry(cfg, i, j) / -c_hat for j in span] for i in span]
    return _report(args, {"n": args.n, "source": CLOSED_FORM, "entries": entries})


def cmd_trace(args) -> str:
    return _report(args, {"trace": trace_inverse(_cfg(args))})


def cmd_rowsum(args) -> str:
    cfg = _cfg(args)
    if args.i is not None:
        outputs = {"i": args.i, "rowsum": rowsum(cfg, args.i)}
    else:
        _require_printable(cfg.n)
        lower, upper = rowsum_bounds(cfg) if cfg.b == 2 else (None, None)
        values = [rowsum(cfg, i) for i in range(1, cfg.n + 1)]
        outputs = {"values": values, "lower": lower, "upper": upper}
    return _report(args, outputs)


def cmd_norm(args) -> str:
    return _report(args, {"norm": exact_infinity_norm(_cfg(args))})


def cmd_bounds(args) -> str:
    cfg = _cfg(args)
    ub = upper_bound(cfg)
    outputs = {"lower": lower_bound(cfg), "upper": ub.value, "exact_norm": exact_infinity_norm(cfg),
               "terms": ub.terms}
    return _report(args, outputs, branch=ub.branch)


def cmd_signs(args) -> str:
    pattern = sign_pattern(_cfg(args))
    _require_printable(args.n**2)
    return _report(args, {"n": args.n, "pattern": pattern})


def cmd_singular(args) -> str:
    return _report(args, singularity_report(args.n, args.b, args.btilde))


def cmd_solve_bvp(args) -> str:
    from .bvp import BvpProblem, solve_fixed_point

    prob = BvpProblem(
        n=args.n, length=args.length, k_coef=args.k, nonlinearity=args.nonlinearity,
        cfg=_cfg(args), bc_left=args.bc_left, bc_right=args.bc_right, c_hat=args.chat,
    )
    _require_printable(prob.n)
    res = solve_fixed_point(prob, tol=args.tol, max_iter=args.max_iter)
    outputs = {
        "iterations": res.iterations,
        "observed_rate": res.observed_rate,
        "expected_rate": res.expected_rate,
        "converged": res.converged,
        "solution": res.solution.tolist(),
    }
    return _report(args, outputs)


def cmd_reproduce(args) -> str:
    """The requested published table as CSV with a per-row pass flag."""
    from . import tables

    rows = _round10(tables.reproduce(args.table_id))
    header = list(rows[0])
    lines = [",".join(header)] + [",".join(_fmt(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neartoeplitz",
        description="Closed-form inverses, norm bounds, and fixed-point BVP runs "
        "for symmetric tridiagonal near-Toeplitz matrices with |b| = 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="also write the report to this path")

    mat = argparse.ArgumentParser(add_help=False)
    mat.add_argument("--n", type=int, required=True, help="matrix order (4..2**53)")
    mat.add_argument("--b", type=int, choices=(2, -2), required=True)
    mat.add_argument("--btilde", type=float, required=True, help="corner diagonal value")
    mat_io = [mat, fmt, out]
    chat = argparse.ArgumentParser(add_help=False)
    chat.add_argument("--chat", type=float, default=-1.0, help="results for -c_hat A (default -1)")
    scaled_io = [mat, chat, fmt, out]

    p = sub.add_parser("entry", parents=scaled_io, help="one inverse entry (1-based indices)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_entry)

    p = sub.add_parser("invert", parents=scaled_io, help="assemble the full inverse")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("trace", parents=mat_io, help="exact trace of the inverse")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("rowsum", parents=mat_io, help="row sum(s) of the inverse")
    p.add_argument("--i", type=int, help="1-based row; omit for all rows plus bounds")
    p.set_defaults(func=cmd_rowsum)

    p = sub.add_parser("norm", parents=mat_io, help="exact infinity norm of the inverse")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("bounds", parents=mat_io, help="lower/upper norm bounds and branch")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("signs", parents=mat_io, help="predicted sign pattern (b=2, btilde<=0)")
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("singular", parents=mat_io, help="singularity test (tolerance 1e-10)")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("solve-bvp", parents=scaled_io, help="fixed-point run for u'' = f(u)")
    p.add_argument("--length", type=float, required=True, help="domain length")
    p.add_argument("--k", type=float, required=True, help="nonlinearity strength")
    p.add_argument("--nonlinearity", choices=("fisher", "bratu"), required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--bc-left", type=float, default=0.0)
    p.add_argument("--bc-right", type=float, default=0.0)
    p.set_defaults(func=cmd_solve_bvp)

    p = sub.add_parser("reproduce", parents=[out], help="recompute a published table (CSV)")
    p.add_argument("table_id", choices=TABLE_IDS)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _error_object(command: str, exc: Exception) -> str:
    payload = {"command": command, "error": {"type": type(exc).__name__, "message": str(exc)}}
    if getattr(exc, "partial", None) is not None:
        fields = ("iterations", "observed_rate", "expected_rate")
        values = {key: getattr(exc.partial, key) for key in fields}
        # An overflowed rate has no JSON form; the partial state keeps the finite fields.
        payload["partial"] = _round10({k: v for k, v in values.items() if math.isfinite(v)})
    return json.dumps(payload) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write(args.func(args), args)
    except SingularMatrixError as exc:
        sys.stderr.write(_error_object(args.command, exc))
        return EXIT_SINGULAR
    except DivergenceError as exc:
        sys.stderr.write(_error_object(args.command, exc))
        return EXIT_DIVERGED
    except (ValueError, IndexError, OSError, MemoryError) as exc:
        sys.stderr.write(_error_object(args.command, exc))
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
